"""Run one CLI command with spans recorded, for the traced ``cli`` workload.

Usage: ``python3 bench/clichild.py SPANS_FILE ARG...`` with the package's
``src`` directory on ``PYTHONPATH``. The command's output goes to stdout as
with ``python -m kantorovich.cli ARG...``; the spans go to SPANS_FILE.
"""

import json
import sys

from tracer import CLI_IMPORT, Tracer, install


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span(CLI_IMPORT):
        import kantorovich.cli
    install(tracer)
    try:
        return kantorovich.cli.main(argv)
    finally:
        tracer.count_tensor_cache()
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main())
