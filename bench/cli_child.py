"""Run the ``critex`` command line with the benchmark's tracer installed.

Usage: ``python3 bench/cli_child.py TRACE_OUT critex-arguments...`` with the
checkout's ``src`` on PYTHONPATH.  The trace is written to TRACE_OUT when the
command ends; the exit code is the command's.
"""

import sys
from pathlib import Path

import tracer


def main() -> int:
    trace_out, argv = Path(sys.argv[1]), sys.argv[2:]
    from critex import cli

    t = tracer.Tracer()
    t.install()
    try:
        return cli.main(argv)
    finally:
        t.restore()
        t.write(trace_out)


if __name__ == "__main__":
    sys.exit(main())
