"""Starts the CLI processes for ``run.py`` from a process that stays small.

A child's ``ru_maxrss`` includes the high-water mark of the process that
spawned it, because the kernel carries the spawner's memory over the
child's ``exec``.  ``run.py`` holds and parses large outputs, so it asks
this helper to start every call, and peak RSS then measures the CLI.

Protocol, one JSON object per line: a request ``{"cmd": [...], "stdin":
"...", "timeout": s}`` is answered with ``{"rc", "stdout", "stderr",
"seconds"}`` (rc -9 on timeout); a request ``{"peak": true}`` with
``{"peak_rss_kb": n}``, the highest RSS of any child so far.  The helper
exits when its stdin closes.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("peak"):
            reply = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        else:
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    request["cmd"], input=request["stdin"].encode(),
                    capture_output=True, timeout=request["timeout"],
                )
                rc, out, err = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired as exc:
                rc, out, err = -9, exc.stdout or b"", b"timed out"
            reply = {
                "rc": rc,
                "stdout": out.decode(errors="replace"),
                "stderr": err.decode(errors="replace"),
                "seconds": time.perf_counter() - start,
            }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
