"""Closed-loop benchmark of the fdcache verification pipeline.

Run from the root of a checkout (no install needed; it imports ``src/``):

    python3 perfbench/run.py --workload verify-4x6r2 --seed 1 --seconds 20 --trace 0

One client in one process: each operation is one demand, and the next
demand starts when the previous one has finished. Demands are drawn from
``--seed`` by rejection sampling and every operation is checked. The last
line of stdout is one JSON object ``{correct, attempted, failed, metrics}``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. End-to-end times are wall times scaled to a
reference machine speed (see calibrate.py). The exit code is 0 only when
every operation passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SPECS, Workload  # noqa: E402

SETUP_PROBES = 8  # fresh processes timing set-up; with the main process, 9 samples
PROBE_TIMEOUT_S = 60
MIN_TIMED = 100  # so that >= 10 samples lie beyond the p90
TRACE_SLICE_S = 1.0
TRACE_FILE_DEMANDS = 20  # keeps the span file a few MB; the metrics use every traced demand
DIGEST_DEMANDS = 50
REPORTED_FAILURES = 3


def import_program() -> None:
    """Import fdcache from this checkout's sources and nowhere else."""
    if not (SRC / "fdcache" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fdcache sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdcache

    if not Path(fdcache.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported fdcache from {fdcache.__file__}, not from {SRC}")


def set_up(name: str, seed: int, tracer: Tracer | None = None) -> tuple[Workload, float, float, dict]:
    """Import fdcache, build the workload and run one untimed, checked warm-up.

    Returns the workload, the set-up seconds scaled to the reference speed
    measured just before and just after it, the raw set-up seconds and the
    warm-up's canonical record.
    """
    reference = calibrate.Reference(SPECS[name].reference)
    before = reference.point_factor()
    started = time.perf_counter()
    import_program()
    if tracer is not None:
        tracer.install()
    workload = Workload(name, seed, reference)
    report = workload.run(next(workload.demands))
    elapsed = time.perf_counter() - started
    factor = (before + reference.point_factor()) / 2
    failure = workload.failure(report)
    if failure:
        raise RuntimeError(f"warm-up operation failed: {failure}")
    return workload, elapsed * factor, elapsed, workload.record(report)


class Phase:
    """Per-operation wall times of one or more loops, and how many operations failed the gate."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.reference_ms: list[float] = []  # calibrated phases: one sample before each operation and one after the last
        self.wall = 0.0
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    @property
    def rate(self) -> float:
        return self.attempted / self.wall


def run_phase(workload: Workload, seconds: float, min_ops: int, digest: gate.Digest, phase: Phase,
              tracer: Tracer | None = None, calibrated: bool = False) -> None:
    """Run demands back to back into ``phase`` until ``seconds`` have passed
    and the phase holds ``min_ops`` operations. A calibrated phase runs the
    reference loop before each operation and after the last."""
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    while True:
        demand = next(workload.demands)
        if calibrated:
            phase.reference_ms.append(workload.reference.sample_ms())
        report = None
        if tracer is not None:
            tracer.begin_demand()
            sid = tracer.start(workload.top_span)
        op_start = clock()
        try:
            report = workload.run(demand)
            failure = None
        except Exception:  # a raise is a failed operation; keep measuring the rest
            failure = "raised:\n" + traceback.format_exc()
        phase.op_seconds.append(clock() - op_start)
        if tracer is not None:
            tracer.stop(sid)
            tracer.end_demand(report)
        if report is not None:
            failure = workload.failure(report)
            digest.add(workload.record(report))
        if failure:
            phase.failed += 1
            if phase.failed <= REPORTED_FAILURES:
                print(f"perfbench: demand {demand} failed: {failure}", file=sys.stderr)
        if clock() >= deadline and phase.attempted >= min_ops:
            break
    if calibrated:
        phase.reference_ms.append(workload.reference.sample_ms())
    phase.wall += clock() - start


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Scaled and raw set-up seconds measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["raw_setup_s"]


def git_sha() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def end_to_end(args, workload: Workload, digest: gate.Digest, setup_main: tuple[float, float]) -> tuple[Phase, dict]:
    """The timed loop with tracing off, then set-up timed again in fresh processes.

    Every time is scaled to the reference speed; the raw figures are printed.
    """
    phase = Phase()
    run_phase(workload, args.seconds, MIN_TIMED, digest, phase, calibrated=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    setups = [setup_main] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    raw_ms = [1000 * s for s in phase.op_seconds]
    op_ms = [ms * f for ms, f in zip(raw_ms, workload.reference.scale_factors(phase.reference_ms))]
    print(f"timed {phase.attempted} demands in {phase.wall:.3f} s; p50 and p90 over {len(op_ms)} samples")
    print(f"raw wall time: {phase.attempted / sum(phase.op_seconds):.3f} demands/s,"
          f" p50 {statistics.median(raw_ms):.3f} ms, p90 {statistics.quantiles(raw_ms, n=10)[8]:.3f} ms;"
          f" {workload.reference.name} reference loop median {statistics.median(phase.reference_ms):.4f} ms")
    print(f"setup samples (s), scaled: {', '.join(f'{s:.4f}' for s, _ in setups)};"
          f" raw: {', '.join(f'{r:.4f}' for _, r in setups)}")
    return phase, {
        "demands_per_s": 1000 * len(op_ms) / sum(op_ms),
        "demand_ms_p50": statistics.median(op_ms),
        "demand_ms_p90": statistics.quantiles(op_ms, n=10)[8],
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(args, workload: Workload, digest: gate.Digest, tracer: Tracer, env: dict) -> tuple[Phase, Phase, dict]:
    """Alternate untraced and traced slices, so that both see the same machine
    load; the gap between their rates is the tracing overhead."""
    plain, traced = Phase(), Phase()
    tracer.uninstall()
    tracer.counts.clear()  # drop what the warm-up counted; set-up spans stay for prefetch/enumerate
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        run_phase(workload, TRACE_SLICE_S, 1, digest, plain)
        tracer.install()
        run_phase(workload, TRACE_SLICE_S, 1, digest, traced, tracer)
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.demands_per_s"] = traced.rate
    metrics["trace.overhead_pct"] = 100 * (plain.rate - traced.rate) / plain.rate
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    written = min(TRACE_FILE_DEMANDS, traced.attempted)
    tracer.write(path, {"env": env, "untraced_demands": plain.attempted, "traced_demands": traced.attempted,
                        "demands_written": written}, written)
    print(f"untraced {plain.attempted} demands at {plain.rate:.3f}/s, traced {traced.attempted}"
          f" at {traced.rate:.3f}/s; spans of set-up and {written} demands written to {path.relative_to(ROOT)}")
    return plain, traced, metrics


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up in this process and print it (used internally)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    if sorted(names) != sorted(SPECS):
        sys.exit(f"perfbench: BENCHMARK.json workloads {names} do not match {sorted(SPECS)}")
    args = parse_args(argv, names)

    tracer = Tracer() if args.trace else None
    workload, setup_scaled, setup_raw, warm_record = set_up(args.workload, args.seed, tracer)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_scaled, "raw_setup_s": setup_raw}))
        return 0

    env = environment(args)
    print("env " + json.dumps(env))
    digest = gate.Digest(DIGEST_DEMANDS)
    digest.add(warm_record)
    if tracer is None:
        phase, values = end_to_end(args, workload, digest, (setup_scaled, setup_raw))
        phases = [phase]
        declared = config["end_to_end"]
    else:
        *phases, values = per_layer(args, workload, digest, tracer, env)
        declared = config["per_layer"]
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"digest sha256 of the first {digest.count} demands' reports: {digest.hexdigest()}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
