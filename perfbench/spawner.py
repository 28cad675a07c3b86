"""Starts benchmark children one at a time and reports their peak RSS.

A child's ru_maxrss counts the memory of the process that forked it, so
children are forked from this small process rather than from run.py,
which holds numpy, the corpus and the reference edges.

Protocol: one JSON request per stdin line,
    {"cmd": [...], "cwd": "...", "log": "...", "timeout": seconds}
answered by one JSON line on stdout,
    {"code": exit code, "rss_mb": peak RSS in MiB, "timed_out": bool}.
The next request is read only after the child has been reaped, so no
two children ever run at once. Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run_one(cmd: list[str], cwd: str, log_path: str, timeout: float) -> dict:
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + timeout
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0, "timed_out": timed_out}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_one(req["cmd"], req["cwd"], req["log"], float(req["timeout"]))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
