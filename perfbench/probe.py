"""A fixed pure-Python workload that measures the host's current speed.

Usage: python3 perfbench/probe.py compute|import

The benchmark spawns this script between its ops and times it from spawn
to exit.  It imports nothing of treelin, so no change to the program can
change its cost; only the machine can.  On a shared host the same op runs
up to twice as slow for tens of seconds at a time, and the probes slow down
with it.

* ``compute`` does the kind of work treelin does once loaded: complex
  arithmetic, tuple keys, dict inserts and lookups, many small allocations.
  It is the reference for op times.
* ``import`` imports numpy and stops, the bulk of a treelin process's
  start-up.  It is the reference for set-up times, which are mostly import
  and slow down less than computation when the host is busy.
"""

import sys

if sys.argv[1:] == ["import"]:
    import numpy  # noqa: F401

    raise SystemExit(0)
if sys.argv[1:] != ["compute"]:
    raise SystemExit("usage: probe.py compute|import")

z = 0.3 + 0.4j
table = {}
for i in range(20000):
    key = (i % 17, i % 5, i % 3, i % 11)
    z = z * (0.999 + 0.001j) + table.get(key, 0j) * 1e-3
    table[key] = z
    row = [z, z.conjugate(), abs(z)]
    z += row[2] * 1e-6
tuples = [tuple(range(i % 9)) for i in range(30000)]
index = {t: i for i, t in enumerate(tuples)}
if not (abs(z) > 0 and len(index) == 9):
    raise SystemExit("probe computed a wrong result")
