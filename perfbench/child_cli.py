"""Run one treelin CLI command in a benchmark child process, traced or with a fault.

Usage: python3 perfbench/child_cli.py <treelin CLI arguments...>

Environment:
  PERFBENCH_TRACE  path of a JSON file; when set, the command runs with the
                   benchmark tracer enabled and the spans, aggregates and
                   the import time of treelin.cli are written there.
  PERFBENCH_OP_ID  op id recorded on every span.
  PERFBENCH_FAULT  "no-contraction" makes every fixed-point inversion raise
                   NoContraction (used by the smoke test to check that the
                   benchmark counts it as a failed op).

The parent puts the checkout's ``src`` on PYTHONPATH.  Untraced, fault-free
ops run ``python3 -m treelin.cli`` directly instead of this script.
"""

import os
import sys
import time

t0 = time.perf_counter()
import treelin.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracer  # noqa: E402


def _force_no_contraction():
    from treelin.errors import NoContraction

    def fixed_point_inversion(*args, **kw):
        raise NoContraction("forced by PERFBENCH_FAULT=no-contraction")

    tracer.rebind("linearize", "fixed_point_inversion", fixed_point_inversion)


def main() -> int:
    if os.environ.get("PERFBENCH_FAULT") == "no-contraction":
        _force_no_contraction()
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return treelin.cli.main(sys.argv[1:])
    tr = tracer.Tracer(span_limit=2000)
    tr.install()
    tr.op_id = os.environ.get("PERFBENCH_OP_ID")
    tr.enabled = True
    tr.counters["cli.import_s"] = import_s
    try:
        return tr.span("cli.main", treelin.cli.main, sys.argv[1:])
    finally:
        tr.enabled = False
        tr.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
