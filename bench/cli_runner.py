"""Run one hyposc command with the tracer installed.

    python3 bench/cli_runner.py TRACE_JSON <hyposc arguments...>

Imports hyposc, installs the tracer's wrappers, calls hyposc.cli.main with
the remaining arguments, writes the span aggregates to TRACE_JSON and exits
with main's return code.  The traced cli_cold sessions use it in place of
`python -m hyposc.cli`.
"""

import json
import sys

from tracer import Tracer


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import hyposc.cli

    try:
        code = hyposc.cli.main(argv)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
