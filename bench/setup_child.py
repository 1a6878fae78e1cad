"""One set-up of the command line, timed in a fresh interpreter.

    python3 bench/setup_child.py SRC ARGV...

Imports ``locinv.cli`` from ``SRC`` and calls ``main(ARGV)`` once with
standard output captured, timing both from before the first import, so the
standard-library modules the command line loads (argparse, json,
concurrent.futures and so on) are paid for as on a real start.  Prints one
JSON object: the seconds, the exit code and the captured output.
``run.py`` starts this several times and reports the median.
"""

import importlib
import io
import os
import sys
import time

# importlib, io, os, sys and time are loaded by the interpreter's own start


def main() -> int:
    t0 = time.perf_counter()
    src = sys.argv[1]
    sys.path.insert(0, src)
    cli = importlib.import_module("locinv.cli")
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        rc = cli.main(sys.argv[2:])
    except SystemExit as exc:
        rc = exc.code
    finally:
        sys.stdout = real_stdout
    seconds = time.perf_counter() - t0

    import json  # after the clock stops: the command line imports it too

    if os.path.dirname(os.path.realpath(cli.__file__)) != os.path.realpath(os.path.join(src, "locinv")):
        sys.exit(f"setup_child: locinv was imported from {cli.__file__}, not {src}")
    print(json.dumps({"seconds": seconds, "rc": rc, "out": captured.getvalue()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
