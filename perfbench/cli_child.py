"""``python -m sphsys.cli`` with the speed probes of ``speed.py`` inside.

    python3 perfbench/cli_child.py FD ARG...

Runs the ``sphsys.cli`` module as ``-m`` would, with ARG... as its
arguments, then writes one JSON line to the inherited file descriptor FD:
the CPU seconds the probes took, and the raw and rescaled CPU seconds of
the code between the first and the last probe.  The parent scales the
child's whole CPU time, less the probes, by the ratio of the last two.
The exit status is the CLI's.
"""

import json
import os
import runpy
import sys
from time import process_time

import speed


def main() -> int:
    fd, args = int(sys.argv[1]), sys.argv[2:]
    sys.argv = ["sphsys.cli", *args]
    clock = speed.SpeedClock()
    start = process_time()
    clock.begin()
    status = 0
    try:
        runpy.run_module("sphsys.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code
    finally:
        raw, scaled = clock.end()
        probes = process_time() - start - raw
        sys.stdout.flush()
        os.write(fd, json.dumps({"probes_s": probes, "raw_s": raw,
                                 "scaled_s": scaled}).encode() + b"\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
