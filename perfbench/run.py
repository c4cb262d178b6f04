"""Benchmark of the treelin CLI and library: one workload per run.

Usage (from the root of a treelin checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are described in perfbench/README.md and perfbench/workloads.py.
One client runs ops in a closed loop, one at a time, each op a fresh
treelin process.  Set-up runs several times in child processes and the
median is reported.  Every time is also corrected for the host's speed at
the moment, measured by probe.py.  After the timed loop
every output is checked; an op fails on a non-zero exit, an exception or a
failed check.  With --trace 1 the same ops are replayed with the
benchmark-side tracer on, and the per-layer metrics and the tracing
overhead are reported.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

The run exits with status 2, printing no result, when the working
directory holds no treelin sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# treelin calls no BLAS routine, but numpy's OpenBLAS starts one thread per
# core at import.  On a 2-core machine those threads compete with the single
# Python thread and make process start-up time swing by tens of percent, so
# the benchmark and every child it spawns run with one BLAS thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up runs this many times per run: once before the first op and the
# rest spread over the timed loop.
SETUP_REPEATS = 5
# The host-speed probes (probe.py): "compute" runs before every op and
# "import" before every set-up, which is mostly import.
# Seconds each probe takes, spawn to exit, on a quiet 2 vCPU Xeon with
# Python 3.11.  They only fix the scale of the host-corrected figures.
NOMINAL_PROBE_S = {"compute": 0.08, "import": 0.10}
# A sample is corrected by the median of the probe taken just before it and
# of this many probes on either side.  Set-up is import-bound and tracks its
# own probe closely; an op is corrected by a wider window, which follows a
# change of host speed within a run but not the noise of single probes.
PROBE_WINDOW = {"compute": 2, "import": 0}
E2E_UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(index / "size")
    return out


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(root / ".git" / head[5:]) or "unknown"
    return head or "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    import numpy

    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": _cache_sizes(),
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "note": "wall-clock and getrusage only: no hardware counters and no cache "
                "flushing, because machine settings are left untouched",
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Runner:
    """Spawns every child of one benchmark run and remembers where files go."""

    def __init__(self, root: Path, work: Path, plan, fault: str | None):
        self.work = work
        self.plan = plan
        self.fault = fault
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.probes: dict = {"compute": [], "import": []}

    def fixture_path(self, index: int) -> Path:
        return self.work / f"fixture{index}.json"

    # -- host speed --------------------------------------------------------
    def probe(self, kind: str) -> float:
        """Seconds one run of a host-speed probe takes, spawn to exit."""
        start = time.perf_counter()
        rc = subprocess.run([sys.executable, str(HERE / "probe.py"), kind],
                            stdin=subprocess.DEVNULL).returncode
        elapsed = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"host-speed probe {kind} failed")
        return elapsed

    def slowdown(self, kind: str, index: int | None = None) -> float:
        """Probe time over its nominal time: above 1 on a slow host.

        With ``index``, the median over PROBE_WINDOW probes either side of
        probe ``index``; without, the median over the whole run.
        """
        samples = self.probes[kind]
        if index is not None:
            k = PROBE_WINDOW[kind]
            samples = samples[max(0, index - k):index + k + 1]
        return statistics.median(samples) / NOMINAL_PROBE_S[kind]

    # -- set-up ------------------------------------------------------------
    def setup(self) -> float:
        """Spawn a set-up worker and return seconds from spawn to ready.

        The "import" probe runs just before, so set-up sample j goes with
        import probe j.  Every set-up writes the same fixtures.
        """
        spec = {
            "fixtures": [[kind, n, D, seed, str(self.fixture_path(i))]
                         for i, (kind, n, D, seed) in enumerate(self.plan.fixtures)],
        }
        spec_path = self.work / "worker_spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        self.probes["import"].append(self.probe("import"))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or not line or not json.loads(line).get("ready"):
            raise RuntimeError("set-up worker failed")
        return elapsed

    # -- ops ---------------------------------------------------------------
    def _cli_args(self, op, out: Path) -> list:
        if op.kind == "linearize":
            kind = self.plan.fixtures[op.fixture][0]
            return ["linearize", kind, "--input", str(self.fixture_path(op.fixture)),
                    "--degree", str(op.D), "--method", op.method, "--output", str(out)]
        if op.kind == "family":
            return ["diagnose", "family", "--k", str(op.k), "--omega", repr(op.omega),
                    "--degree", str(op.D), "--output", str(out)]
        return ["diagnose", "domain", "--input", str(self.fixture_path(op.fixture)),
                "--degree", str(op.D), "--output", str(out)]

    def run(self, op, tag: str, traced: bool) -> dict:
        out = self.work / f"{tag}.out"
        args = self._cli_args(op, out)
        env = self.env
        if traced or self.fault == "no-contraction":
            argv = [sys.executable, str(HERE / "child_cli.py")] + args
            env = dict(env, PERFBENCH_OP_ID=tag)
            if traced:
                env["PERFBENCH_TRACE"] = str(self.work / f"{tag}.trace.json")
            if self.fault == "no-contraction":
                env["PERFBENCH_FAULT"] = "no-contraction"
        else:
            argv = [sys.executable, "-m", "treelin.cli"] + args
        err_path = self.work / f"{tag}.err"
        with open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rc = proc.returncode
        error = None
        if rc != 0:
            lines = err_path.read_text(encoding="utf-8").strip().splitlines()
            error = lines[-1] if lines else f"exit {rc}"
        return {"elapsed": elapsed, "rc": rc, "error": error,
                "rss_mb": usage.ru_maxrss / 1024.0, "output": str(out)}


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------


def measure(runner: Runner, rounds: int, setups: int) -> tuple:
    """Run ``rounds`` whole rounds in a closed loop, one op at a time.

    ``setups`` more set-up samples are taken between ops, spread evenly over
    the loop, so that the set-up median sees the same stretch of machine
    time as the ops.  Returns (op records, set-up samples).
    """
    plan = runner.plan
    ops = [op for r in range(rounds) for op in plan.rounds[r % len(plan.rounds)]]
    marks = {round((k + 1) * len(ops) / (setups + 1)) for k in range(setups)}
    records, setup_samples = [], []
    for i, op in enumerate(ops):
        if i in marks:
            setup_samples.append(runner.setup())
        runner.probes["compute"].append(runner.probe("compute"))
        rec = runner.run(op, f"op{i}", traced=False)
        rec.update(index=i, label=op.label, op=op, probe=i)
        records.append(rec)
    return records, setup_samples


def replay_traced(runner: Runner, records: list) -> tuple:
    """Run the ops of ``records`` again, in order, with tracing on.

    Returns (records of the replay, host slowdown of the replay relative to
    the untraced loop), the latter from "compute" probes run before each op
    as in ``measure``.
    """
    out, probes = [], []
    for rec in records:
        op = rec["op"]
        tag = f"trace{rec['index']}"
        probes.append(runner.probe("compute"))
        new = runner.run(op, tag, traced=True)
        new["trace"] = str(runner.work / f"{tag}.trace.json")
        new.update(index=rec["index"], label=rec["label"], op=op)
        out.append(new)
    return out, statistics.median(probes) / statistics.median(runner.probes["compute"])


def merged_trace(traced: list, spans_path: Path) -> dict:
    """Per-name aggregates of the traced replay.

    Each op wrote a trace file; their spans are gathered into ``spans_path``.
    """
    summaries, spans = [], []
    for r in traced:
        with open(r["trace"], encoding="utf-8") as fh:
            doc = json.load(fh)
        summaries.append(doc)
        spans.extend(doc["spans"])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return tracer.merge(summaries)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


TAIL_LADDER = (99.9, 99.0, 90.0)


def tail(times: list) -> tuple:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond it, else p50.

    Returns (value, percentile, sample count); percentiles are nearest-rank.
    """
    s = sorted(times)
    n = len(s)
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10:
            return s[math.ceil(q / 100.0 * n) - 1], q, n
    return statistics.median(s), 50.0, n


def _figures(op_times: list, ok: list, setup_samples: list, peak_rss_mb: float) -> dict:
    done = [t for t, good in zip(op_times, ok) if good]
    busy = sum(op_times)
    return {
        "setup_s": statistics.median(setup_samples),
        "solves_per_s": len(done) / busy if busy else 0.0,
        "solve_s.p50": statistics.median(done) if done else 0.0,
        "solve_s.tail": tail(done)[0] if done else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def end_to_end(records: list, setup_samples: list, peak_rss_mb: float,
               runner: Runner) -> tuple:
    """(host-corrected metrics, metrics as measured, extra figures).

    For the corrected metrics every op time is divided by the host slowdown
    around the op ("compute" probes) and every set-up sample by the slowdown
    of its own "import" probe.  A stretch of slow host then counts as little
    as possible against the program.  Memory is not corrected.
    """
    ok = [r["ok"] for r in records]
    measured = [r["elapsed"] for r in records]
    corrected = [r["elapsed"] / runner.slowdown("compute", r["probe"]) for r in records]
    setup_corrected = [t / runner.slowdown("import", j) for j, t in enumerate(setup_samples)]
    raw = _figures(measured, ok, setup_samples, peak_rss_mb)
    metrics = _figures(corrected, ok, setup_corrected, peak_rss_mb)
    _, tail_pct, tail_n = tail([t for t, good in zip(measured, ok) if good]) if any(ok) \
        else (0.0, 0.0, 0)
    extra = {
        "failed_ratio": (len(records) - sum(ok)) / len(records),
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
        "host_slowdown": {kind: runner.slowdown(kind) for kind in runner.probes},
    }
    return metrics, raw, extra


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _print_e2e(metrics: dict, raw: dict, extra: dict, records: list):
    slow = extra["host_slowdown"]
    print("  host slowdown over the run (median probe time over nominal): " + ", ".join(
        f"{kind} {value:.4f}" for kind, value in slow.items()))
    print("  host-corrected value, then as measured:")
    for name, value in metrics.items():
        note = ""
        if name == "solve_s.tail":
            note = (f"  (p{extra['tail_percentile']:.1f} of {extra['tail_samples']} "
                    f"successful ops)")
        print(f"  {name:<14} {value:>14.6g} {E2E_UNITS[name]:<4} {raw[name]:>14.6g}{note}")
    failed = sum(1 for r in records if not r["ok"])
    print(f"  {'failed_ratio':<14} {extra['failed_ratio']:>14.6g} ratio  "
          f"({failed} of {len(records)} ops)")


def _print_layers(values: dict):
    for layer, names, moves in tracer.LAYERS:
        print(f"  [{layer}] should move: {moves}")
        for name in names:
            note = "  (computed upper bound)" if name in tracer.UPPER_BOUND_COUNTS else ""
            print(f"    {name:<46} {values[name]:>14.6g} {per_layer_unit(name)}{note}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (not comparable with normal runs)")
    p.add_argument("--fault", choices=("corrupt-h", "no-contraction"),
                   help="inject a fault to check that it is counted as a failure")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "treelin" / "cli.py").is_file():
        print(f"perfbench: no treelin sources under {root / 'src'}; run from a "
              "treelin checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rounds = workloads.rounds_for(args.workload, args.seconds)
    plan = workloads.make_plan(args.workload, args.seed, rounds, args.tiny)
    runner = Runner(root, work, plan, args.fault)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = out_dir / f"{name}-spans.json"
    traced, merged = [], None
    try:
        setup_samples = [runner.setup()]
        records, more = measure(runner, rounds, SETUP_REPEATS - 1)
        setup_samples += more
        if args.trace:
            traced, replay_slowdown = replay_traced(runner, records)
            merged = merged_trace(traced, spans_path)
        checker = checks.Checker(root, runner, args.fault)
        checker.check_all(records)
        checker.check_all(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak = max(r["rss_mb"] for r in records)
    metrics, raw, extra = end_to_end(records, setup_samples, peak, runner)
    env = environment(root, args.seed)
    correct = not any(r["wrong"] for r in records + traced) and any(r["ok"] for r in records)
    result = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seconds": args.seconds,
        "tiny": args.tiny,
        "fault": args.fault,
        "environment": env,
        "setup_samples_s": setup_samples,
        "probe_samples_s": runner.probes,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "measured_metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in raw.items()},
        **extra,
        "ops": [{k: r[k] for k in ("label", "elapsed", "rc", "ok", "wrong", "error")}
                for r in records],
    }

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({workloads.WHY[args.workload]})")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    print("end-to-end metrics:")
    _print_e2e(metrics, raw, extra, records)
    for r in records:
        if not r["ok"]:
            print(f"  failed op {r['index']} ({r['label']}): {r['error']}")

    final_metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    if args.trace:
        values = tracer.per_layer_metrics(merged)
        untraced_s = sum(r["elapsed"] for r in records)
        traced_s = sum(r["elapsed"] for r in traced) / replay_slowdown
        overhead = {"untraced_s": untraced_s, "traced_s": traced_s,
                    "replay_slowdown": replay_slowdown,
                    "overhead_s": traced_s - untraced_s,
                    "overhead_share": (traced_s - untraced_s) / untraced_s}
        result["per_layer"] = values
        result["tracing_overhead"] = overhead
        print(f"per-layer metrics (traced replay of the same {len(traced)} ops):")
        _print_layers(values)
        print(f"tracing overhead: traced {traced_s:.4f} s - untraced {untraced_s:.4f} s "
              f"= {overhead['overhead_s']:+.4f} s ({100 * overhead['overhead_share']:+.1f} %); "
              f"traced time scaled by 1/{replay_slowdown:.4f}, the host slowdown of the "
              "replay relative to the untraced loop")
        final_metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}

    with open(out_dir / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    failed = sum(1 for r in records if not r["ok"])
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": final_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
