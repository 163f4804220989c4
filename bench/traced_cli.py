"""Run the qmforms command line with the layer tracer installed.

    python3 bench/traced_cli.py <qmforms arguments>

Behaves like ``python -m qmforms.cli`` (same stdout, exit code and
tracebacks) and adds one stderr line, TRACE_MARK followed by JSON, holding
the spans, the counters and the Eisenstein cache hits and misses.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qmforms  # noqa: E402
import qmforms.cli  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import TRACE_MARK  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracing.install(tracer, qmforms)
    eisenstein = tracing.unwrap_cached(qmforms.eisenstein_series)
    try:
        return qmforms.cli.main(sys.argv[1:])
    finally:
        info = eisenstein.cache_info()
        payload = {"spans": tracer.rows(), "counters": dict(tracer.counters),
                   "cache": [info.hits, info.misses]}
        sys.stderr.write(TRACE_MARK + json.dumps(payload) + "\n")


if __name__ == "__main__":
    sys.exit(main())
