"""Start the ``cli`` workload's commands from a small process, one at a time.

A child started by fork or vfork takes its parent's peak resident size as
the start of its own ``ru_maxrss``, so a command started by the benchmark
process would report the benchmark's memory, not its own.  This process
imports only what it needs to start children; its own peak (about 11 MB)
stays below that of every ``padic-kas`` command (15-18 MB), so the largest
``ru_maxrss`` of its children is the largest command's.

It reads one JSON line per request on standard input and answers each with
one JSON line on standard output:

- a list of arguments: runs ``python -S -m padic_kas.cli`` with them and
  answers ``[exit code or null if it timed out, stdout, stderr, seconds]``;
- ``null``: answers the largest peak resident size of its children so far,
  in MB.

The first command-line argument is the seconds after which a command is
killed.  The process ends when its standard input closes.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


def run(argv, timeout):
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "padic_kas.cli", *argv],
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return [None, "", "timed out", perf_counter() - t0]
    return [proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0]


def main():
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        request = json.loads(line)
        if request is None:
            reply = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        else:
            reply = run(request, timeout)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
