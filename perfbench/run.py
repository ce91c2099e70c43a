"""Seeded benchmark of homprod: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload homology-4d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --smoke                      # tiny sizes, checks only

One run sets the workload up several times (each time building its inputs
and running one tiny-size warm-up iteration) and reports the median as
``setup_s``.  It then repeats the timed step until ``--seconds`` would be
exceeded, checking every output, and reports the median as ``result_s``.
With ``--trace 1`` the first half of the window runs untraced and the
second half with span tracing installed; the run reports per-layer metrics
and the tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, inputs, every sample) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5
END_TO_END = (("result_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
TAIL_SAMPLES = 10


def _import_library():
    """Import homprod from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "homprod" / "__init__.py").is_file():
        print(f"error: no homprod sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import homprod

    if Path(homprod.__file__).resolve().parent != SRC / "homprod":
        print(f"error: imported homprod from {homprod.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def _llc_size() -> str | None:
    """Size of the highest-level CPU cache, as the kernel reports it (e.g. "L3 107520K")."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def machine_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "homprod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "llc": _llc_size(),
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with at least TAIL_SAMPLES samples above it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in range(99, 50, -1):
        idx = math.ceil(p / 100 * n) - 1
        if idx >= 0 and n - 1 - idx >= TAIL_SAMPLES:
            return p, ordered[idx]
    return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run of one workload: counts operations and their misses."""

    def __init__(self, workload_cls, seed: int, scratch: Path):
        self.cls = workload_cls
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def _account(self, wl, misses) -> None:
        self.attempted += len(wl.operations)
        failed_ops = {op for op, _ in misses}
        self.failed += min(len(failed_ops), len(wl.operations))
        self.misses += [f"{wl.name} {op}: {msg}" for op, msg in misses]

    def iterate(self, wl):
        """One checked iteration: (step seconds or None if it raised, total seconds)."""
        ctx = wl.fresh()
        t0 = perf_counter()
        try:
            out = wl.step(ctx)
            elapsed = perf_counter() - t0
        except Exception:
            elapsed = None
            misses = [(op, "step raised: " + traceback.format_exc(limit=3))
                      for op in wl.operations]
        else:
            try:
                misses = wl.check(ctx, out)
            except Exception:
                misses = [("check", "check raised: " + traceback.format_exc(limit=3))]
        wl.discard(ctx)
        self._account(wl, misses)
        return elapsed, perf_counter() - t0

    def setup(self):
        """Set up SETUP_REPS times, each with a tiny-size warm-up; returns the workload."""
        times = []
        for _ in range(SETUP_REPS):
            warm = self.cls(self.seed, True, self.scratch)
            ctx = warm.fresh()
            t0 = perf_counter()
            wl = self.cls(self.seed, False, self.scratch)
            wl.setup()
            warm.setup()
            out = warm.step(ctx)
            times.append(perf_counter() - t0)
            warm.reference()
            self._account(warm, warm.check(ctx, out))
            warm.discard(ctx)
        wl.reference()
        self.setup_times = times
        return wl

    def measure(self, wl, window: float, tracer=None) -> list[tuple[int, float]]:
        """Checked iterations until the next one would overrun ``window`` seconds.

        Returns (tracer iteration, step seconds) for every step that completed.
        """
        samples, costs = [], []
        start = perf_counter()
        while True:
            if tracer is not None:
                tracer.begin_iteration()
            elapsed, cost = self.iterate(wl)
            costs.append(cost)
            if elapsed is not None:
                samples.append((tracer.iteration if tracer is not None else -1, elapsed))
            if perf_counter() - start + _median(costs) > window:
                return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS
    from tracing import PER_LAYER, Tracer

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[name], seed, scratch)
    wl = run.setup()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "inputs": wl.describe(), "machine": machine_info(),
              "setup_samples_s": run.setup_times, "warmup": "one tiny-size iteration per set-up"}
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("inputs " + json.dumps(record["inputs"], sort_keys=True))

    metrics: dict[str, dict] = {}
    if not trace:
        samples = [s for _, s in run.measure(wl, seconds)]
        values = {
            "result_s": _median(samples),
            "setup_s": _median(run.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        record["result_samples_s"] = samples
        high = tail(samples)
        tail_text = (f"p{high[0]} {high[1]:.4f} s" if high else
                     f"no tail percentile above p50 with >={TAIL_SAMPLES} samples beyond it")
        print(f"result_s     {values['result_s']:.4f} s   median of n={len(samples)}, {tail_text}")
        print(f"setup_s      {values['setup_s']:.4f} s   median of n={SETUP_REPS}")
        print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        for key, value in wl.quality.items():
            print(f"{key:<12} {value:g} count")
        record["quality"] = wl.quality
    else:
        untraced = [s for _, s in run.measure(wl, seconds / 2)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.measure(wl, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        per_iteration = [tracer.iteration_metrics(it, s) for it, s in traced]
        values = {k: _median([m[k] for m in per_iteration]) for k in
                  (per_iteration[0] if per_iteration else ())}
        values["trace.untraced_result_s"] = _median(untraced)
        values["trace.traced_result_s"] = _median([s for _, s in traced])
        values["trace.overhead_s"] = values["trace.traced_result_s"] - values["trace.untraced_result_s"]
        metrics = {k: {"value": values.get(k, 0.0), "unit": unit} for k, unit in PER_LAYER}
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = spans_path.name
        wall = values["trace.traced_result_s"] or 1.0
        print(f"traced n={len(traced)}, untraced n={len(untraced)}, "
              f"overhead {values['trace.overhead_s']:+.4f} s; layer self time per iteration:")
        for layer_metric, _ in PER_LAYER:
            if layer_metric.endswith(".self_s"):
                v = values.get(layer_metric, 0.0)
                print(f"  {layer_metric:<18} {v:9.4f} s  {100 * v / wall:5.1f}%")

    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_frac  {failed_frac:g}   ({run.failed} of {run.attempted} operations)")
    for miss in run.misses[:20]:
        print("miss: " + miss.replace("\n", " | "))
    record.update(attempted=run.attempted, failed=run.failed, misses=run.misses, metrics=metrics)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process so peak RSS stays per workload."""
    from workloads import WORKLOADS

    rows, ok = [], True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", encoding="utf-8") as fh:
            quality = json.load(fh).get("quality", {})
        rows.append((name, result, quality))
    print()
    for name, result, quality in rows:
        fields = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()
                  if not trace or k.endswith(".self_s") or k.startswith("trace.")]
        fields += [f"{k}={v:g} count" for k, v in quality.items()]
        frac = result["failed"] / result["attempted"]
        print(f"{name:<15} failed_frac={frac:g} ({result['failed']}/{result['attempted']})  "
              + "  ".join(fields))
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for _, r, _ in rows),
                      "failed": sum(r["failed"] for _, r, _ in rows),
                      "metrics": {f"{n}.{k}": m for n, r, _ in rows
                                  for k, m in r["metrics"].items()}}))
    return 0 if ok else 1


def run_smoke() -> int:
    """Every workload once at its tiny size, untraced and traced, with all checks."""
    from workloads import WORKLOADS
    from tracing import Tracer

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    ok = True
    for name, cls in WORKLOADS.items():
        for traced in (False, True):
            run = Run(cls, 0, scratch)
            t0 = perf_counter()
            wl = cls(0, True, scratch)
            wl.setup()
            wl.reference()
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
                tracer.begin_iteration()
            try:
                run.iterate(wl)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            spans = len(tracer.spans) if tracer is not None else None
            good = run.failed == 0 and (spans is None or spans > 0)
            ok = ok and good
            print(f"smoke {name:<15} traced={int(traced)} {'ok' if good else 'FAIL'} "
                  f"{perf_counter() - t0:.2f} s" + (f", {spans} spans" if traced else ""))
            for miss in run.misses:
                print("  miss: " + miss.replace("\n", " | "))
    print("smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a tiny size and check outputs")
    args = parser.parse_args(argv)
    _import_library()
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return run_smoke()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
