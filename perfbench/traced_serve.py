"""Run ``repro serve`` with the benchmark's probes installed.

Usage: ``python3 perfbench/traced_serve.py TRACE_OUT serve --schema ...``.
Everything after ``TRACE_OUT`` is passed to the ``repro`` command line
unchanged; when the daemon shuts down, its spans and counters are
written to ``TRACE_OUT`` (see :meth:`perfbench.tracing.Tracer.dump`).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.tracing import Tracer  # noqa: E402


def main(argv) -> int:
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install(serving=True)
    try:
        return repro_main(argv[1:])
    finally:
        tracer.restore()
        tracer.dump(argv[0], {})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
