"""Starts the benchmark's child processes from a process that stays small.

Linux records, at ``exec``, the peak resident set of the memory the new
program replaces; a child spawned straight from the benchmark, which
holds whole corpora for its checks, would report the benchmark's peak
as its own.  This process holds nothing, so each child's rusage is the
child's.

Protocol: one JSON request per stdin line (``argv``, ``cwd``, ``env``,
``stdout``, ``stderr`` paths and ``timeout`` seconds), one JSON reply per
stdout line (exit ``code``, ``wall`` and ``cpu`` seconds, ``maxrss_kb``).
The process exits when stdin closes.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"],
                                env=request["env"])
        timer = threading.Timer(max(0.0, request["timeout"]), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"code": code, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
