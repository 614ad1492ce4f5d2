"""`python -m revgeo.cli` with tracer spans installed, for the traced cli run.

Runs revgeo.cli.main on the given arguments, then appends the counters as
one JSON line, after tracer.MARK, to standard error.
"""

import json
import sys

import tracer


def main():
    tr = tracer.Tracer()
    tr.install()
    from revgeo import cli
    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(tracer.MARK + json.dumps(tr.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
