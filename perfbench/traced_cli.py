"""Run the condisc CLI under the span tracer, in a child process.

    PERFBENCH_SPANS=out.json python perfbench/traced_cli.py analyze FILE --format json

Arguments are passed to ``condisc.cli.main``; the spans and counts are
written to the file named by PERFBENCH_SPANS when the command returns.
"""

import json
import os
import sys
from pathlib import Path

import condisc.cli  # PYTHONPATH points at the checkout's src/
import spans


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    try:
        return condisc.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
