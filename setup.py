"""Setuptools shim.

This file exists so the package can be installed editable
(``pip install -e .``) in offline environments that lack the ``wheel``
package required by PEP 517 editable builds.  numpy is the one runtime
dependency: the RAPPID instruction stream and decode engine are built on
its arrays.
"""

from setuptools import setup

setup(install_requires=["numpy"])
