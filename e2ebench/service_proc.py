"""A ``DecodeService`` in its own process, driven over stdin.

Prints ``{"port": N}`` once listening.  Each ``cpu`` line on stdin is
answered with the CPU seconds (user + system) of this process, all its
threads and its pool workers;
``stop`` or end of input drains the service and exits.  Run by
``service_mix`` with ``PYTHONPATH`` pointing at the program's sources.
"""

from __future__ import annotations

import asyncio
import json
import sys

from harness import stop_resource_tracker, tree_cpu_s  # this script's directory is on sys.path


async def serve() -> None:
    from repro.engine import pool
    from repro.service.server import DecodeService

    service = DecodeService()
    _host, port = await service.start()
    print(json.dumps({"port": port}), flush=True)
    # Read stdin on the event loop, never from a thread blocked in
    # readline: a pool worker forked while that thread holds the stdin
    # lock deadlocks when multiprocessing closes stdin in the child.
    commands = asyncio.StreamReader()
    await asyncio.get_running_loop().connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    try:
        while True:
            line = (await commands.readline()).decode().strip()
            if line == "cpu":
                print(json.dumps({"cpu_s": tree_cpu_s()}), flush=True)
            else:
                break
    finally:
        await service.shutdown()
        pool.shutdown()
        stop_resource_tracker()


if __name__ == "__main__":
    asyncio.run(serve())
