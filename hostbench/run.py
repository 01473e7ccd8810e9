"""Host-time benchmark of the cc-NVM simulator and crash campaign.

Run from the root of a checkout::

    python3 hostbench/run.py --workload lbm-stream --seed 0 --seconds 20 --trace 0

Workloads are defined in :mod:`hostbench.workloads`.  The program runs
the workload's operations round-robin in this one process (no worker
pool) until ``--seconds`` have passed and every operation ran at least
once, checks every result (:mod:`hostbench.workloads`), and prints one
``name value unit`` line per metric, the result digests, and as the last
line a JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh processes' time from start to ready-to-run: imports plus
input generation), ``wall_s`` (host seconds for one pass over the
operations, the sum of each operation's median), ``work_per_s`` (trace
records x designs, or crash states covered, per host second of
``wall_s``) and ``peak_rss_mb``.  Host times are calibrated to a
reference host speed (:mod:`hostbench.calibration`), and the process is
pinned to one CPU.  ``fail_ratio`` (failed / attempted
operations) is printed too; it is 0 on a correct program, so the result
line carries it as ``failed`` and ``attempted`` instead of a metric.

``--trace 1`` first times untraced passes, then runs one pass under
:mod:`hostbench.tracing` and reports the per-layer metrics (see
``hostbench/README.md`` for which end-to-end metric each should move).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def import_path() -> None:
    """Make the checkout's ``src/repro`` and ``hostbench`` importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"hostbench: no src/repro under {ROOT}; run from a full checkout")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _pin_to_one_cpu() -> None:
    """Run on one CPU, so the calibration kernel and the call it brackets
    share a core; hopping between cores with different neighbours adds noise."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure_setup(workload: str, seed: int, calibration) -> tuple[float, float]:
    """Median seconds from spawning a fresh interpreter to ready-to-run;
    (calibrated, raw)."""

    def spawn() -> float:
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        # CLOCK_MONOTONIC is system-wide, so the child's stamp compares.
        return float(done.stdout.split()[-1]) - started

    runs = [calibration.measure(spawn) for _ in range(SETUP_REPEATS)]
    return (
        statistics.median(ready * calibration.scale(i) for ready, i, _ in runs),
        statistics.median(ready for ready, _, _ in runs),
    )


class Checker:
    """Counts failed operations: raised, broke an invariant, or changed result."""

    def __init__(self, workload, seed: int, reference: dict) -> None:
        self.workload = workload
        self.expected = reference.get("digests", {}).get(str(seed), {}).get(workload.name)
        #: Digest of each result key the first time it was seen this run.
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def problems(self, op, result) -> list[str]:
        found = self.workload.problems(op, result)
        for key, value in self.workload.digests(op, result).items():
            first = self.digests.setdefault(key, value)
            if value != first:
                found.append(f"{key}: digest {value} differs from this run's {first}")
            if self.expected is not None and self.expected.get(key) != value:
                found.append(f"{key}: digest {value} != reference {self.expected.get(key)}")
        return found

    def run(self, op):
        """Run *op* and check its result; returns the result, or None."""
        self.attempted += op.units
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            self.failed += op.units
            print(f"FAILED {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        found = self.problems(op, result)
        if found:
            self.failed += op.units
            for problem in found:
                print(f"FAILED {op.name}: {problem}", file=sys.stderr)
        return result


def timed_passes(ops, checker, calibration, seconds: float):
    """Round-robin *ops* until *seconds* passed and each ran once.

    Returns per-operation calibrated and raw host-time samples, and the
    first result of each operation.
    """
    runs = []
    first: dict[str, object] = {}
    started = time.perf_counter()
    while len(runs) < len(ops) or time.perf_counter() - started < seconds:
        op = ops[len(runs) % len(ops)]
        gc.collect()
        result, index, raw = calibration.measure(lambda: checker.run(op))
        runs.append((op.name, index, raw))
        if result is not None:
            first.setdefault(op.name, result)
    samples: dict[str, list[float]] = {op.name: [] for op in ops}
    raw_samples: dict[str, list[float]] = {op.name: [] for op in ops}
    for name, index, raw in runs:
        samples[name].append(raw * calibration.scale(index))
        raw_samples[name].append(raw)
    return samples, raw_samples, first


def pass_seconds(samples: dict[str, list[float]]) -> float:
    return sum(statistics.median(s) for s in samples.values())


def end_to_end(workload, samples, first, setup_s: float) -> dict:
    wall = pass_seconds(samples)
    work = sum(workload.work(result) for result in first.values())
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (work / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


#: Exact simulated counts, summed over designs and per design.
SIM_COUNTS = (
    ("llc_writebacks", "count"), ("nvm_reads", "count"), ("nvm_writes", "count"),
    ("epochs", "count"), ("counter_hmacs", "count"), ("data_hmacs", "count"),
    ("cycles", "cycles"),
)
#: (metric, span, field, unit) read off the trace summary.
SPAN_METRICS = [
    ("workloads.gen_s", "workloads.gen", "total_s", "s"),
    ("sim.runner.self_s", "sim.runner", "self_s", "s"),
    ("sim.cpu.self_s", "sim.cpu", "self_s", "s"),
    ("sim.hierarchy.self_s", "sim.hierarchy", "self_s", "s"),
    ("sim.hierarchy.calls", "sim.hierarchy", "calls", "count"),
    ("sim.flush_s", "sim.flush", "total_s", "s"),
    ("core.scheme_flush_s", "core.scheme_flush", "total_s", "s"),
    ("mem.cache.self_s", "mem.cache", "self_s", "s"),
    ("mem.cache.calls", "mem.cache", "calls", "count"),
    ("mem.nvm.self_s", "mem.nvm", "self_s", "s"),
    ("mem.wpq.self_s", "mem.wpq", "self_s", "s"),
    ("mem.controller.self_s", "mem.controller", "self_s", "s"),
    ("metadata.genesis.lines", "metadata.genesis", "calls", "count"),
    ("metadata.genesis.self_s", "metadata.genesis", "self_s", "s"),
    ("metadata.metacache.calls", "metadata.metacache", "calls", "count"),
    ("metadata.metacache.self_s", "metadata.metacache", "self_s", "s"),
    ("metadata.layout.calls", "metadata.layout", "calls", "count"),
    ("metadata.layout.self_s", "metadata.layout", "self_s", "s"),
    ("metadata.merkle.self_s", "metadata.merkle", "self_s", "s"),
    ("crypto.cipher.calls", "crypto.cipher", "calls", "count"),
    ("crypto.cipher.self_s", "crypto.cipher", "self_s", "s"),
    ("crypto.hmac.calls", "crypto.hmac", "calls", "count"),
    ("crypto.hmac.self_s", "crypto.hmac", "self_s", "s"),
    ("crypto.prf.self_s", "crypto.prf", "self_s", "s"),
    ("core.build.self_s", "core.build", "self_s", "s"),
    ("core.writeback.calls", "core.writeback", "calls", "count"),
    ("core.writeback.self_s", "core.writeback", "self_s", "s"),
    ("core.read.self_s", "core.read", "self_s", "s"),
    ("core.engine.self_s", "core.engine", "self_s", "s"),
    ("core.recovery.calls", "core.recovery", "calls", "count"),
    ("core.recovery.self_s", "core.recovery", "self_s", "s"),
    ("crashsim.campaign.self_s", "crashsim.campaign", "self_s", "s"),
    ("crashsim.cell.self_s", "crashsim.cell", "self_s", "s"),
    ("crashsim.record.calls", "crashsim.record", "calls", "count"),
    ("crashsim.record.self_s", "crashsim.record", "self_s", "s"),
    ("crashsim.enumerate.self_s", "crashsim.enumerate", "self_s", "s"),
    ("crashsim.reduce.self_s", "crashsim.reduce", "self_s", "s"),
    ("crashsim.classes.self_s", "crashsim.classes", "self_s", "s"),
    ("crashsim.oracle.calls", "crashsim.oracle", "calls", "count"),
    ("crashsim.oracle.self_s", "crashsim.oracle", "self_s", "s"),
]


def per_layer(workload, samples, first, summary, traced_s: float) -> dict:
    from hostbench.tracing import MODULES, OP_SPAN
    from hostbench.workloads import DESIGNS

    def span(name, field):
        return summary.get(name, {}).get(field, 0)

    metrics = {
        name: (span(span_name, field), unit)
        for name, span_name, field, unit in SPAN_METRICS
    }
    for module in MODULES:
        self_s = sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == module)
        metrics[f"{module}.self_s"] = (self_s, "s")

    # Per-scheme host time from the untraced passes.
    from repro.crashsim.oracle import ALLOWED_OUTCOMES

    cell = {scheme: 0.0 for scheme in sorted(ALLOWED_OUTCOMES)}
    for name, times in samples.items():
        cell[name.split("/")[0]] += statistics.median(times)
    for scheme, seconds in cell.items():
        metrics[f"core.cell_s.{scheme}"] = (seconds, "s")

    sims = {d: first[d] for d in DESIGNS if workload.kind == "sim" and d in first}
    for field, unit in SIM_COUNTS:
        metrics[f"sim.{field}"] = (sum(getattr(r, field) for r in sims.values()), unit)
        for design in DESIGNS:
            value = getattr(sims[design], field) if design in sims else 0
            metrics[f"sim.{field}.{design}"] = (value, unit)
    writebacks = metrics["sim.llc_writebacks"][0]
    untraced = pass_seconds(samples)
    metrics["sim.host_us_per_writeback"] = (
        untraced / writebacks * 1e6 if writebacks else 0.0, "us"
    )

    covered = oracle_calls = 0
    if workload.kind == "campaign":
        for summary_, _report in first.values():
            covered += summary_["totals"]["covered"]
            oracle_calls += summary_["totals"]["oracle_calls"]
    metrics["crashsim.reduction_ratio"] = (
        covered / oracle_calls if oracle_calls else 0.0, "ratio"
    )
    op_total = span(OP_SPAN, "total_s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced, "ratio")
    metrics["trace.unattributed_share"] = (
        span(OP_SPAN, "self_s") / op_total if op_total else 0.0, "ratio"
    )
    return metrics


def traced_pass(workload, seed: int, checker, calibration) -> tuple[dict, float]:
    """Set up and run one pass under tracing; (span summary, calibrated
    seconds of the traced operations)."""
    from hostbench.tracing import OP_SPAN, Tracer, instrumented
    from hostbench.workloads import Op

    tracer = Tracer()
    runs = []
    with instrumented(tracer):
        ops = tracer.wrap("bench.setup", workload.prepare)(seed)
        for op_id, op in enumerate(ops):
            traced = Op(op.name, functools.partial(tracer.run_op, op_id, op.run), op.units)
            gc.collect()
            runs.append(calibration.measure(lambda: checker.run(traced)))
    summary = tracer.summary(
        inclusive=(OP_SPAN, "workloads.gen", "sim.flush", "core.scheme_flush")
    )
    return summary, sum(raw * calibration.scale(i) for _, i, raw in runs)


def run(workload, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Run one workload; returns the object the last output line carries."""
    from hostbench.calibration import Calibration

    checker = Checker(workload, seed, reference)
    calibration = Calibration()
    ops = workload.prepare(seed)
    if not trace:
        samples, raw, first = timed_passes(ops, checker, calibration, seconds)
        setup_s, raw_setup_s = measure_setup(workload.name, seed, calibration)
        metrics = end_to_end(workload, samples, first, setup_s)
    else:
        samples, raw, first = timed_passes(ops, checker, calibration, seconds / 2)
        summary, traced_s = traced_pass(workload, seed, checker, calibration)
        metrics = per_layer(workload, samples, first, summary, traced_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if not trace:
        unit = workload.work_unit
        print(f"{unit}_per_s {metrics['work_per_s'][0]} {unit}/s")
        print(f"raw_setup_s {raw_setup_s} s")
    print(f"raw_wall_s {pass_seconds(raw)} s")
    print(f"calibration_kernel_s {statistics.median(calibration.kernel_s)} s")
    print(f"fail_ratio {checker.failed / checker.attempted} fraction")
    for key, value in sorted(checker.digests.items()):
        print(f"digest {workload.name}/{key} {value}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def load_reference() -> dict:
    return json.loads((ROOT / "hostbench" / "reference.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_path()
    from hostbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.prepare(args.seed)
        print(time.monotonic())
        return 0
    _pin_to_one_cpu()
    result = run(workload, args.seed, args.seconds, bool(args.trace), load_reference())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
