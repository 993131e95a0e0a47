"""Start the benchmark's operation processes, one at a time, and time them.

    python3 tnbench/spawn.py

Reads one JSON request per line on stdin,
`{"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}`,
runs the command to its end (killing it after SECONDS) and answers with
one line `{"wall_s": ..., "exit": ..., "peak_rss_mb": ...}`.  Ends when
stdin closes.

The runner starts operations through this process because on Linux a
child's peak RSS (`ru_maxrss`) is at least the peak RSS of the process
that started it.  This process never holds more than a request, so that
floor stays below the size of any `tngeom` process; the runner, which
parses reports of several MB, would raise it.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
