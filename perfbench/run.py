"""Benchmark of orthobound's certification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` next to this directory. With
``--trace 0`` the workload runs untraced for ``--seconds`` and the last line
of standard output is a JSON object with the end-to-end metrics, whose
timings are scaled to a reference host speed (see ``hostspeed``); with
``--trace 1`` it alternates untraced and traced blocks over the same inputs
and reports the per-layer metrics and the tracing overhead. Every
operation's output is checked. The full record (tail percentile and sample
count, unscaled wall-clock timings, output digest, environment) is written
to ``.perfbench_out/``, with the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_REPS = 5
PROBE_REPS = 5
WINDOWS = 10
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TRACE_BLOCK_S = 0.25
# untraced op times are scaled to reference host speed per block of at least
# BLOCK_NS of ops (see hostspeed)
BLOCK_NS = 50_000_000

END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PROBES = {
    "interpreter": "pass",
    "numpy": "import numpy",
    "orthobound": "import orthobound",
}
# spans reported only through an aggregate metric
AGGREGATED_SPANS = ("fuzz.run_fuzz", "jsonio.")


def layer_metrics(span_names) -> dict[str, str]:
    """Per-layer metric names and units, in report order."""
    out = {}
    for span in span_names:
        if span.startswith(AGGREGATED_SPANS):
            continue
        out[f"{span}.calls_per_item"] = "calls/item"
        out[f"{span}.us_per_call"] = "us"
        out[f"{span}.self_share"] = "ratio"
    out["fuzz.run_fuzz.self_share"] = "ratio"
    out["fuzz.rejected_ratio"] = "ratio"
    out["jsonio.decode_us"] = "us"
    out["cli.interpreter_ms"] = "ms"
    out["cli.numpy_import_ms"] = "ms"
    out["cli.orthobound_import_ms"] = "ms"
    out["cli.main_ms"] = "ms"
    out["trace.overhead_share"] = "ratio"
    return out


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    fitting = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0]
    return fitting[-1] if fitting else None


def child_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code`` with ``src/`` importable."""
    from workloads import child_env

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


class Loop:
    """Closed-loop runner: one operation at a time over the workload's pool.

    The first result for each pool input is hashed into the digest and kept;
    every later result for that input must reproduce it exactly.
    """

    def __init__(self, wl, op):
        self.wl = wl
        self.op = op
        size = len(wl.pool)
        self.seen = [False] * size
        self.refs: list = [None] * size
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rejected = 0

    @property
    def covered(self) -> bool:
        return all(self.seen)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def step(self, j: int, tracer=None, meter=None) -> int:
        """Run pool input ``j`` (cyclically); returns the op's duration in ns,
        less the time ``meter``'s samples took inside it."""
        k = j % len(self.wl.pool)
        inp = self.wl.pool[k]
        arg = self.wl.prepare(inp)
        root = tracer.begin_op(j) if tracer else None
        spent = meter.spent if meter else 0
        t0 = time.perf_counter_ns()
        try:
            out, error = self.op(arg), None
        except Exception as exc:  # an op that raises counts as failed
            out, error = None, exc
        elapsed = time.perf_counter_ns() - t0
        if meter:
            elapsed -= meter.spent - spent
        if tracer:
            tracer.end_op(root)
        self.attempted += 1
        record = None
        if error is not None:
            self._fail(f"op {j}: {type(error).__name__}: {error}")
        else:
            if tracer:
                self.rejected += self.wl.rejected(out)
            try:
                record = repr(self.wl.check(inp, out)).encode()
            except Exception as exc:  # CheckFailed, or an output of the wrong shape
                self._fail(f"op {j}: {type(exc).__name__}: {exc}")
        if not self.seen[k]:
            self.seen[k] = True
            self.refs[k] = record
            self.digest.update(record if record is not None else b"<failed>")
        elif record is not None and self.refs[k] is not None and record != self.refs[k]:
            self._fail(f"op {j}: output differs from the first pass over input {k}")
        return elapsed


def timed_setup(wl) -> tuple[list[float], list[float]]:
    """Set the workload up SETUP_REPS times: a fresh interpreter's import of the
    package, then input generation and warm-up in this process. Returns the
    wall times and the same times scaled to reference host speed."""
    import hostspeed

    wall, scaled = [], []
    with hostspeed.Meter() as meter:
        for _ in range(SETUP_REPS):
            since, spent = len(meter.reps), meter.spent
            t0 = time.perf_counter()
            child_seconds("import orthobound")
            wl.setup()
            seconds = time.perf_counter() - t0 - (meter.spent - spent) / 1e9
            wall.append(seconds)
            scaled.append(seconds * meter.scale(since))
    return wall, scaled


def windows(values: list, count: int) -> list[list]:
    n = len(values)
    return [values[w * n // count:(w + 1) * n // count] for w in range(count)]


def window_rates(wl, lat_ns: list) -> list[float]:
    """Throughput of each of WINDOWS windows of consecutive ops."""
    parts = windows(lat_ns, min(WINDOWS, len(lat_ns)))
    return [wl.items_per_op * len(w) / (sum(w) / 1e9) for w in parts]


def run_untraced(wl, seconds: float) -> tuple[dict, dict, Loop]:
    """Closed loop for ``seconds``, with the host's speed sampled throughout
    (see ``hostspeed``). Each op's time, less the sampling's, is scaled to
    reference host speed by the kernel reps of its block, the ops that ran in
    at least BLOCK_NS around it. Throughput is taken per
    window of consecutive ops and the median over WINDOWS windows is reported,
    so a burst of interference moves it little; the median latency is that of
    all scaled op times. The tail latency goes to the record only, unscaled:
    on a shared host it measures the CPU time taken away from the benchmark."""
    import hostspeed
    import numpy as np

    loop = Loop(wl, wl.op)
    raw_ns, scaled_ns, factors = [], [], []
    with hostspeed.Meter() as meter:
        deadline = time.perf_counter() + seconds
        j = 0
        while j < len(wl.pool) or time.perf_counter() < deadline:
            since = len(meter.reps)
            block = []
            while sum(block) < BLOCK_NS:
                block.append(loop.step(j, meter=meter))
                j += 1
            factor = meter.scale(since)
            raw_ns += block
            scaled_ns += [ns * factor for ns in block]
            factors.append(factor)
    n = len(raw_ns)
    rates = window_rates(wl, scaled_ns)
    raw_rates = window_rates(wl, raw_ns)
    tail_p = tail_percentile(n)
    tail_p = 100.0 if tail_p is None else tail_p
    who = resource.RUSAGE_CHILDREN if wl.measures_children else resource.RUSAGE_SELF
    metrics = {
        "items_per_s": statistics.median(rates),
        "latency_p50_ms": float(np.median(scaled_ns)) / 1e6,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    details = {
        "ops": n,
        "items": n * wl.items_per_op,
        "latency_tail_ms": float(np.percentile(raw_ns, tail_p)) / 1e6,
        "latency_tail_percentile": tail_p,
        "latency_samples": n,
        "latency_max_ms": max(raw_ns) / 1e6,
        "items_per_s_windows": rates,
        "wall_items_per_s": statistics.median(raw_rates),
        "wall_latency_p50_ms": float(np.median(raw_ns)) / 1e6,
        "wall_items_per_s_windows": raw_rates,
        "host_scale_blocks": len(factors),
        "host_scale_quartiles": statistics.quantiles(factors, n=4) if len(factors) > 1 else factors,
        "kernel_reps": len(meter.reps),
        "kernel_mean_ns": statistics.fmean(meter.reps) if meter.reps else None,
        "peak_rss_of": "children" if wl.measures_children else "self",
    }
    return metrics, details, loop


def run_traced(wl, seconds: float, out_dir: Path, stem: str) -> tuple[dict, dict, Loop]:
    from tracer import Tracer
    from workloads import TRACED

    probes = {name: [] for name in PROBES}
    for _ in range(PROBE_REPS):
        for name, code in PROBES.items():
            probes[name].append(child_seconds(code) * 1e3)
    probe_ms = {name: statistics.median(v) for name, v in probes.items()}

    tracer = Tracer(TRACED)
    loop = Loop(wl, wl.traced_op)
    t0 = time.perf_counter()
    loop.step(0)
    block = max(1, min(len(wl.pool), round(TRACE_BLOCK_S / max(time.perf_counter() - t0, 1e-6))))
    plain_ns, traced_ns = [], []
    deadline = time.perf_counter() + seconds
    j = 1
    while not loop.covered or time.perf_counter() < deadline:
        for i in range(j, j + block):
            plain_ns.append(loop.step(i))
        tracer.install()
        try:
            for i in range(j, j + block):
                traced_ns.append(loop.step(i, tracer))
        finally:
            tracer.uninstall()
        j += block

    totals = tracer.totals()
    items = len(traced_ns) * wl.items_per_op
    op_ns = totals["op"][1]
    metrics = {name: 0.0 for name in layer_metrics(n for n, _, _ in TRACED)}
    for span, (calls, incl, own) in totals.items():
        if span == "op":
            continue
        if f"{span}.calls_per_item" in metrics:
            metrics[f"{span}.calls_per_item"] = calls / items
            metrics[f"{span}.us_per_call"] = incl / calls / 1e3 if calls else 0.0
        if f"{span}.self_share" in metrics:
            metrics[f"{span}.self_share"] = own / op_ns
    sampled = totals["admissibility.CorridorSpec.sample"][0]
    metrics["fuzz.rejected_ratio"] = loop.rejected / sampled if sampled else 0.0
    metrics["jsonio.decode_us"] = tracer.outermost_ns("jsonio.") / items / 1e3
    metrics["cli.interpreter_ms"] = probe_ms["interpreter"]
    metrics["cli.numpy_import_ms"] = probe_ms["numpy"] - probe_ms["interpreter"]
    metrics["cli.orthobound_import_ms"] = probe_ms["orthobound"] - probe_ms["numpy"]
    if wl.name == "cli-check":
        metrics["cli.main_ms"] = statistics.median(plain_ns) / 1e6
    metrics["trace.overhead_share"] = sum(traced_ns) / sum(plain_ns) - 1.0

    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(out_dir / f"{stem}.spans.npz")
    details = {
        "ops_untraced": len(plain_ns) + 1,
        "ops_traced": len(traced_ns),
        "block_ops": block,
        "items_traced": items,
        "untraced_us_per_item": sum(plain_ns) / (len(plain_ns) * wl.items_per_op) / 1e3,
        "traced_us_per_item": sum(traced_ns) / items / 1e3,
        "spans": len(tracer.name),
        "span_nesting_errors": tracer.nesting_errors(),
        "probe_ms": probes,
        "self_ns": {span: own for span, (_, _, own) in totals.items()},
    }
    return metrics, details, loop


def measure(wl, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, dict]:
    """Set up and run one workload; returns the result line and the full record."""
    import machine
    from workloads import TRACED

    setup_wall, setup_times = timed_setup(wl)
    stem = f"{wl.name}-seed{wl.seed}-trace{int(trace)}"
    if trace:
        metrics, details, loop = run_traced(wl, seconds, out_dir, stem)
        units = layer_metrics(name for name, _, _ in TRACED)
    else:
        metrics, details, loop = run_untraced(wl, seconds)
        metrics["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    result = {
        "correct": loop.failed == 0 and details.get("span_nesting_errors", 0) == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "trace": trace,
        "result": result,
        "error_ratio": loop.failed / loop.attempted,
        "errors": loop.errors,
        "digest": loop.digest.hexdigest(),
        "digest_inputs": len(wl.pool),
        "setup_s_reps": setup_times,
        "setup_wall_s_reps": setup_wall,
        "details": details,
        "environment": machine.environment(ROOT),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orthobound" / "__init__.py").is_file():
        sys.stderr.write(f"error: no orthobound package under {SRC}\n")
        return 2
    # One BLAS thread, set before numpy loads: a second OpenBLAS thread made
    # no op faster, and its spin-waits put preemptions of the other CPU into
    # the latency tail (quadrature-large p99 spread 47% over seeds).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import OUT, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if wl.measures_children and hasattr(os, "sched_setaffinity"):
        # Ops in child processes: one CPU for this process and its children,
        # so the host-speed samples run on the CPU the measured work runs on.
        # Sampled from the other CPU, the children's speed was tracked badly
        # (scaled p50 spread 9 to 12% over seeds, 3 to 6% on one CPU). An
        # in-process op is sampled on its own thread and needs no pinning;
        # pinned, quadrature-large spread 11% against 6 to 7% unpinned.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, record = measure(wl, args.seconds, bool(args.trace), OUT)
    print(f"{wl.name} seed {wl.seed}: {result['attempted']} ops, {result['failed']} failed, "
          f"digest {record['digest'][:16]}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "latency_tail_ms" in record["details"]:
        d = record["details"]
        print(f"  latency tail p{d['latency_tail_percentile']:g} of {d['latency_samples']} ops"
              f" = {d['latency_tail_ms']:.6g} ms")
    for error in record["errors"]:
        print(f"  error: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
