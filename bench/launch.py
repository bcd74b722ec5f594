"""Run one ``ecgalarm`` command in this fresh interpreter.

    python3 bench/launch.py --stamp FILE [--trace FILE] -- <ecgalarm arguments>

Writes the CLOCK_MONOTONIC time at which ``ecgalarm`` and its dependencies
finished importing to the stamp file, so the caller can measure set-up time
from the moment it started the process. With ``--trace`` the layer
functions are wrapped (see ``tracing.py``) and the spans are written to the
trace file when the command ends.
"""

import argparse
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--trace")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from ecgalarm import cli

    ready = time.monotonic()
    with open(args.stamp, "w") as fh:
        fh.write(repr(ready))

    if not command:
        return 0
    if not args.trace:
        return cli.main(command)
    import tracing

    tracer = tracing.install(args.trace)
    try:
        return cli.main(command)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
