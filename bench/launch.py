"""Run one command; write its wall time and resource usage to a file.

    python3 bench/launch.py REPORT_FILE COMMAND...

On Linux a process's ru_maxrss starts from the peak RSS of the process that
forked it: the forked copy of the parent's address space is counted when
the child execs.  Children of run.py, which holds numpy and the checks'
data, would report run.py's own peak whenever it is the larger.  This
launcher imports nothing heavy (about 10 MB), so the peak it reads belongs
to COMMAND.  Stdin, stdout and stderr pass through to COMMAND.  The report
is one JSON object: wall_s (spawn to reap), cpu_s (user + sys), maxrss_kb,
code (the exit code).  COMMAND gets BENCH_SPAWN_NS, the monotonic-clock
reading just before it was started, in its environment (tracer.py uses it).
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write("usage: launch.py REPORT_FILE COMMAND...\n")
        return 2
    report, command = argv[0], argv[1:]
    start = time.perf_counter_ns()
    proc = subprocess.Popen(command, env=dict(os.environ, BENCH_SPAWN_NS=str(start)))
    _, status, usage = os.wait4(proc.pid, 0)
    wall_ns = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall_ns * 1e-9, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
