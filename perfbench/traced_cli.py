"""``python -m deutschpaths.cli`` with the benchmark's tracer installed.

Usage: traced_cli.py SPANS_FILE REQUEST_ID CLI_ARGS...

Runs ``deutschpaths.cli.main`` on CLI_ARGS exactly as the module's
``__main__`` block does, and on the way out, whether main returned or
raised, writes the aggregated spans of this process to SPANS_FILE.
"""

import json
import sys

from spans import Tracer


def run() -> int:
    spans_file, request = sys.argv[1], int(sys.argv[2])
    tracer = Tracer()
    tracer.request = request
    tracer.install()
    from deutschpaths import cli

    try:
        return cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        with open(spans_file, "w") as fh:
            json.dump(tracer.aggregate(), fh)


if __name__ == "__main__":
    sys.exit(run())
