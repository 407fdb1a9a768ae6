#!/usr/bin/env python3
"""qembed benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload build_demo --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Run from the repository root. The program is imported from ./src; nothing is
installed. One process, one calling thread, closed loop: each operation starts
when the previous one has returned. BLAS is pinned to one thread.

--trace 0 times the workload untraced and prints the end-to-end metrics of
BENCHMARK.json. --trace 1 alternates an untraced and a traced pass of a fixed
amount of work, prints the per-layer metrics, and writes the spans to
.bench_work/traces/. Either way every output is checked against a reference
outside the timed region; a failed check counts as a failed operation.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the line
before it carries the machine note, the named workload metrics and, for the
builds, the artifact digests.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # same value on every commit; at most nproc

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input; for the harness self-check only")
    return parser.parse_args(argv)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest() -> str:
    """sha256 over src/ file paths and bytes: names the program version without git."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def machine_note(seed: int, load_at_start) -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


@dataclass
class Sample:
    kind: str
    items: int
    seconds: float
    ok: bool
    notes: dict = field(default_factory=dict)


def _run_step(step, tracer, samples):
    """Time step.call (traced when a tracer is given), then check it untraced."""
    try:
        if tracer is None:
            start = time.perf_counter()
            result = step.call()
            seconds = time.perf_counter() - start
        else:
            with tracer:
                start = time.perf_counter()
                result = step.call()
                seconds = time.perf_counter() - start
        problem, notes = step.check(result)
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        samples.append(Sample(step.kind, step.items, float("nan"), False))
        return
    if problem:
        print(f"check failed ({step.kind}): {problem}", file=sys.stderr)
    samples.append(Sample(step.kind, step.items, seconds, problem is None, notes))


def _timed_run(wl, seconds):
    """Steps until the run length is spent; never starts one expected to overrun."""
    samples, walls = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(samples) >= wl.min_ops and elapsed + statistics.median(walls) > seconds:
            return samples
        step = wl.next_step()
        _run_step(step, None, samples)
        walls.append(time.perf_counter() - start - elapsed)


def _traced_run(wl, seconds, tracers):
    """Pairs of (untraced, traced) passes over wl.trace_steps(); at least one pair.
    tracers maps each step kind to its own Tracer, so shares can be read per phase."""
    import tracing
    untraced, traced, walls = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if walls and elapsed + statistics.median(walls) > seconds:
            return untraced, traced
        for samples, trace in ((untraced, False), (traced, True)):
            samples.append([])
            for step in wl.trace_steps():
                tracer = tracers.setdefault(step.kind, tracing.Tracer()) if trace else None
                _run_step(step, tracer, samples[-1])
        walls.append(time.perf_counter() - start - elapsed)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qembed" / "__init__.py").is_file():
        print(f"error: qembed sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return _run_each(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    load_at_start = os.getloadavg()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work, args.tiny)
        setup_s = statistics.median(wl.setup() for _ in range(SETUP_REPEATS))
        if args.trace:
            tracers = {}
            untraced, traced = _traced_run(wl, args.seconds, tracers)
            samples = [s for p in untraced + traced for s in p]
            for kind, tracer in tracers.items():
                tracer.write(ROOT / ".bench_work" / "traces" /
                             f"{args.workload}-{kind}-seed{args.seed}-{os.getpid()}.jsonl")
            metrics, detail = _layer_results(tracers, untraced, traced)
        else:
            samples = _timed_run(wl, args.seconds)
            metrics, detail = {}, {}
            if all(s.ok for s in samples):
                metrics, detail = wl.summary(samples)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not s.ok for s in samples)
    detail = {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}
    detail["setup_s"] = {"value": setup_s, "unit": "s"}
    detail["error_rate"] = {"value": failed / len(samples), "unit": "share"}
    if not args.trace:
        detail["peak_rss_mb"] = {"value": metrics["peak_rss_mb"], "unit": "MB"}
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if extra or (missing and failed == 0):
        print(f"error: metrics {extra} not declared, {missing} not measured", file=sys.stderr)
        return 3
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_note(args.seed, load_at_start),
        "workload_metrics": detail,
        "artifacts": [s.notes["digests"] for s in samples if "digests" in s.notes],
        "op_seconds": {kind: sorted(round(s.seconds, 5) for s in samples
                                    if s.ok and s.kind == kind)
                       for kind in sorted({s.kind for s in samples})},
        "samples": len(samples),
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }))
    return 0


def _run_each(args, names) -> int:
    """Run every workload in its own child process, one after another."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    codes = [subprocess.run([sys.executable, __file__, "--workload", name, *rest],
                            check=False).returncode for name in names]
    return max(codes)


def _layer_results(tracers, untraced, traced):
    import tracing

    def timed(passes):
        return statistics.median(sum(s.seconds for s in p if s.ok) for p in passes)

    overhead = timed(traced) / timed(untraced) - 1.0
    stage_s: dict[str, float] = {}
    for sample in (s for p in traced for s in p):
        for stage, secs in sample.notes.get("stage_s", {}).items():
            stage_s[stage] = stage_s.get(stage, 0.0) + secs
    totals: dict[str, float] = {}
    detail = {}
    for kind, tracer in tracers.items():
        kind_totals = tracer.layer_totals()
        for key, value in kind_totals.items():
            totals[key] = totals.get(key, 0) + value
        shares = tracing.self_time_shares(kind_totals)
        detail.update({f"self_share.{kind}.{k}": (v, "share")
                       for k, v in list(shares.items())[:5]})
    metrics = tracing.layer_metrics(totals, stage_s, len(traced), overhead)
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
