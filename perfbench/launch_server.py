"""Run ``python -m repro.serve`` with the benchmark's span wrappers installed.

Usage::

    PYTHONPATH=src python3 perfbench/launch_server.py TRACE_OUT [serve flags ...]

The wrappers from :func:`tracing.install_serving` go in first, then the
program's own command-line entry point runs unchanged.  Spans are written
to ``TRACE_OUT`` when the server exits (it drains and returns on SIGINT).
"""

from __future__ import annotations

import sys

from tracing import Tracer, install_serving


def main() -> int:
    trace_out, serve_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_serving(tracer)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
