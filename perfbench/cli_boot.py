"""Run the lenswrt CLI as `python -m lenswrt.cli` would, sampling its speed.

    PERFBENCH_SPEED_OUT=path [PERFBENCH_TRACE_OUT=path] python3 perfbench/cli_boot.py <lenswrt arguments>

Behaves like `python -m lenswrt.cli` (same stdout, stderr and exit code).
It starts the speed probes (speed.py) before lenswrt is imported and
writes their summary to PERFBENCH_SPEED_OUT.  With PERFBENCH_TRACE_OUT
set it also installs the benchmark's span wrappers and writes the layer
totals, the span count and the wall time of each selftest criterion to
PERFBENCH_TRACE_OUT, and the spans next to it.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import Sampler  # noqa: E402

_SAMPLER = Sampler()
_SAMPLER.start()

import lenswrt.cli  # noqa: E402
import lenswrt.selftest  # noqa: E402


def _timed_criteria(criteria: dict):
    def timed(number, fn):
        def run():
            start = time.perf_counter()
            try:
                return fn()
            finally:
                criteria[f"{number:02d}"] = time.perf_counter() - start

        return run

    return tuple((number, title, timed(number, fn)) for number, title, fn in lenswrt.selftest.CRITERIA)


def traced_main(out: str, argv) -> int:
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    criteria: dict[str, float] = {}
    lenswrt.selftest.CRITERIA = _timed_criteria(criteria)
    tracer.op_id = 0
    tracer.enabled = True
    try:
        return lenswrt.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.write_spans(out + ".spans")
        with open(out, "w") as fh:
            json.dump({"totals": tracer.totals(), "spans": tracer.span_count, "criteria": criteria}, fh)


def main() -> int:
    sys.argv[0] = lenswrt.cli.__file__  # the program name argparse shows, as under -m
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    try:
        if trace_out:
            return traced_main(trace_out, sys.argv[1:])
        return lenswrt.cli.main(sys.argv[1:])
    finally:
        _SAMPLER.stop()
        _SAMPLER.write_summary(os.environ["PERFBENCH_SPEED_OUT"])


if __name__ == "__main__":
    sys.exit(main())
