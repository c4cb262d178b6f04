"""Benchmark set-up child: imports treelin and writes the run's fixtures.

Usage: python3 perfbench/worker.py SPEC.json   (with the checkout's src on PYTHONPATH)

SPEC holds ``fixtures``: [kind, n, D, seed, path] rows, each written with
the treelin fixture generator.  The worker prints {"ready": true} when
set-up is done; the parent times set-up from spawn to that line.
"""

import json
import sys

import treelin.cli


def setup(spec):
    for kind, n, D, seed, path in spec["fixtures"]:
        rc = treelin.cli.main(["fixture", kind, "--n", str(n), "--degree-f", "3",
                               "--trunc", str(D), "--seed", str(seed), "--out", path])
        if rc != 0:
            raise SystemExit(f"fixture generation failed for {path}")


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    setup(spec)
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
