"""Run ``grandam.cli.main`` under the span tracer (the traced cli-subcommands run).

Usage: python cli_launch.py SPANS_FILE OP_ID [grandam arguments...]

Records when ``grandam`` finished importing, installs the tracer, runs the
CLI, then writes {"imported_at": ..., "spans": [...]} to SPANS_FILE. Times
are ``time.perf_counter`` readings, which on Linux share one monotonic
clock across processes, so the parent can subtract its spawn time.
"""

import json
import sys
import time

import grandam.cli

imported_at = time.perf_counter()

from tracer import Tracer  # noqa: E402  (the import time above excludes it)


def main():
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        return grandam.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"imported_at": imported_at, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
