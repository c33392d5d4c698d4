"""``python -m ottolab.cli ARGS`` with span recording.

Usage (from the checkout root, with ``PYTHONPATH=src``):

    python perfbench/traced_cli.py SPANS_PATH ARGS...

Imports the CLI, wraps the layer functions (see ``tracer.install``), runs
``ottolab.cli.main(ARGS)`` and writes the spans to SPANS_PATH when it ends,
also when it ends with an exception, whose traceback then prints as usual.
"""

import sys

import ottolab.cli

from tracer import Tracer


def traced_main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return ottolab.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(traced_main())
