"""Starts the benchmark's CLI children and reaps each with wait4.

A child's ru_maxrss also counts the memory its parent had mapped when the
child was spawned (the address space the child starts from before exec).
The benchmark process grows to hundreds of MiB while it generates and
checks inputs, so children are spawned from this small process instead,
started before the benchmark has loaded anything.

Protocol: one JSON request per line on stdin,
{"argv": [...], "stdout": path, "stderr": path}; one JSON reply per line
on stdout, {"code": int, "wall_s": float, "maxrss_kib": int}.  Children run
in this process's working directory and environment.  EOF on stdin ends it.
"""

import json
import os
import sys
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        out = os.open(req["stdout"], flags, 0o644)
        err = os.open(req["stderr"], flags, 0o644)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, out, 1),
                                               (os.POSIX_SPAWN_DUP2, err, 2)])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        finally:
            os.close(out)
            os.close(err)
        reply = {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                 "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
