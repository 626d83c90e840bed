"""Small helper process that starts, times and reaps the benchmark's ops.

    python3 spawner.py SCRATCH-DIR

Reads one JSON request per line on stdin, ``{"argv": [...], "limit": s}``,
runs the argv with stdout and stderr going to ``SCRATCH-DIR/stdout`` and
``SCRATCH-DIR/stderr``, kills it after ``limit`` seconds, reaps it with
``os.wait4`` and answers with one JSON line: wall time, exit code, the
child's own peak resident set and whether it was killed.  Exits at end of
input.

A forked child starts from a copy of its parent's memory and Linux keeps
that size in the child's ``ru_maxrss``, so ops are started from this
process, which stays small, rather than from the benchmark process.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv, limit, scratch):
    killed = []
    with open(os.path.join(scratch, "stdout"), "wb") as out, \
            open(os.path.join(scratch, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)

        def kill():
            killed.append(True)
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit_code": proc.returncode, "maxrss_kb": usage.ru_maxrss,
            "killed": bool(killed)}


def main():
    scratch = sys.argv[1]
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["limit"], scratch)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
