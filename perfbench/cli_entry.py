"""Traced stand-in for ``python -m scalefisher.cli``.

Usage: python cli_entry.py SPANS_JSON <scalefisher cli arguments>

Imports the CLI, records that import as the span ``cli.import``, runs
``scalefisher.cli.main`` under the tracer and writes the spans and cache
counts to SPANS_JSON.  Span times use the system-wide monotonic clock, so
the caller can graft them under the op that launched this process.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import scalefisher
    import scalefisher.cli
    t1 = time.perf_counter()

    from tracing import Tracer

    tracer = Tracer()
    tracer.install(scalefisher)
    tracer.spans.append(("cli.import", t0, t1, -1, 0, 0))
    tracer.activate(0)
    try:
        code = scalefisher.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump({"spans": tracer.spans, "cache": dict(tracer.cache)}, fh)
    sys.exit(code)
