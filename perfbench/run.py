"""End-to-end benchmark of the simulator, executor, store, service and MC
stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chaos8 --seed 3 --seconds 60 --trace 0

``--trace 0`` measures with the program untouched and prints every
end-to-end metric of ``BENCHMARK.json``, each time rescaled to a
reference host speed (``hostspeed.py``); ``--trace 1`` alternates
blocks of untraced and traced units, prints the per-layer self-time table and
every per-layer metric, and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  The last line of
standard output is always one JSON object::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for the workloads, the metrics and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tracing_overhead(units) -> float:
    """Mean over input variants of (median traced unit / median untraced
    unit of that variant) - 1, so both sides of each ratio ran the same
    input."""
    walls: Dict[tuple, List[float]] = {}
    for unit in units:
        walls.setdefault((unit.info["variant"], unit.traced), []).append(unit.wall)
    ratios = [
        _median(walls[(variant, True)]) / _median(walls[(variant, False)])
        for variant, traced in walls
        if traced and (variant, False) in walls
    ]
    return statistics.fmean(ratios) - 1.0 if ratios else 0.0


def end_to_end(workload, units, setup, probe) -> Dict[str, float]:
    """Every time is rescaled to the probe's reference host speed."""
    from workloads import own_peak_rss_mb

    scaled = probe.scaled
    if workload.name == "service_mix":
        rate = _median(
            [
                u.info["cycles"]
                / sum(scaled(j.span) for j in u.info["jobs"] if j.kind == "cold")
                for u in units
            ]
        )
        rss = _median(workload.rss)
    else:
        rate = _median([u.info["cycles"] / scaled(u.span) for u in units])
        rss = own_peak_rss_mb()
    return {
        "setup_s": _median([scaled(s) for s in setup]),
        "wall_s": _median([scaled(u.span) for u in units]),
        "sim_cycles_per_s": rate,
        "peak_rss_mb": rss,
    }


def service_layers(units) -> Dict[str, float]:
    """Client-side service numbers, over every round of the run."""
    from workloads import percentile

    jobs = [j for u in units for j in u.info.get("jobs", [])]
    if not jobs:
        return {}
    cold = [j for j in jobs if j.kind == "cold"]
    warm = [j for j in jobs if j.kind == "warm"]
    mc = [j for j in jobs if j.kind == "mc"]
    cells = mc[0].result["results"]
    executed = mc[0].result["stats"]["executed"]
    used = sum(cell["shards_used"] for cell in cells)
    return {
        "service.admit_s": _median([j.admit for j in cold + warm]),
        "service.first_event_s": _median([j.first_event for j in cold]),
        "service.tail_s": _median([j.tail for j in warm]),
        "service.result_fetch_s": _median([j.fetch for j in warm]),
        "cold_job_s.p50": _median([j.latency for j in cold]),
        "warm_job_s.p50": _median([j.latency for j in warm]),
        "warm_job_s.p90": percentile([j.latency for j in warm], 90),
        "mc.shards_executed": executed,
        "mc.shards_used": used,
        "mc.shard_useful_ratio": used / executed,
        "mc_patterns_per_s": _median(
            [sum(c["n"] for c in j.result["results"]) / j.latency for j in mc]
        ),
    }


def per_layer(workload, ctx, units) -> Dict[str, float]:
    rec = ctx.recorder
    traced = [u for u in units if u.traced]
    runs = [u.run_id for u in traced]
    n = max(1, len(traced))
    self_s, _calls = rec.self_times(runs)

    def busy(name: str) -> float:
        return self_s.get(name, 0.0) / n

    def per_unit(key: str) -> float:
        return rec.total_count(key, runs) / n

    def info(key: str) -> float:
        return _median([u.info[key] for u in units])

    root = sum(rec.durations(workload.name, runs))
    builds = rec.durations("sim.network_build")
    metrics = {
        "sim.transfer.busy_s": busy("sim.transfer"),
        "sim.allocation.busy_s": busy("sim.allocation"),
        "sim.generation.busy_s": busy("sim.generation"),
        "sim.injection.busy_s": busy("sim.injection"),
        "sim.window.busy_s": busy("sim.window"),
        "sim.drain.busy_s": busy("sim.drain"),
        "sim.inject_fault.busy_s": busy("sim.inject_fault"),
        "reliability.on_cycle.busy_s": busy("reliability.on_cycle"),
        "analysis.cdg.busy_s": busy("analysis.cdg"),
        "analysis.cdg.checks": per_unit("analysis.cdg.checks"),
        "faults.degrade.busy_s": busy("faults.degrade"),
        "faults.degrade.calls": per_unit("faults.degrade.calls"),
        "sim.network_build_s": _median(builds),
        "service.admit_s": 0.0,
        "service.first_event_s": 0.0,
        "service.tail_s": 0.0,
        "service.result_fetch_s": 0.0,
        "mc.shards_executed": 0,
        "mc.shards_used": 0,
        "mc.shard_useful_ratio": 0.0,
        "sim.cycles": per_unit("sim.cycles") if workload.name != "service_mix" else info("cycles"),
        "sim.window_cycles": per_unit("sim.window_cycles"),
        "sim.drain_cycles": per_unit("sim.drain_cycles"),
        "sim.messages_delivered": info("delivered"),
        "sim.flits_delivered": info("flits"),
        "reliability.retransmissions": info("retransmissions"),
        "exec.cache_hit_ratio": info("hit_ratio"),
        "exec.infra_retries": info("infra_retries"),
        "exec.infra_failures": info("infra_failures"),
        "cold_job_s.p50": 0.0,
        "warm_job_s.p50": 0.0,
        "warm_job_s.p90": 0.0,
        "mc_patterns_per_s": 0.0,
        "failed_ops_ratio": ctx.failed / max(1, ctx.attempted),
        "trace.coverage": 1.0 - self_s.get(workload.name, 0.0) / root if root else 0.0,
        "trace.overhead": tracing_overhead(units),
    }
    metrics.update(service_layers(units))
    return metrics


def self_time_table(workload, ctx, units) -> str:
    rec = ctx.recorder
    traced = [u for u in units if u.traced]
    runs = [u.run_id for u in traced]
    if not traced:
        return "(no traced unit)"
    self_s, calls = rec.self_times(runs)
    wall = sum(u.wall for u in traced)
    n = len(traced)
    lines = [
        f"per-layer self time, mean of {n} traced unit(s) "
        f"(unit wall {wall / n:.4f} s; the unit's own row is time no layer span covers)",
        f"  {'span':28} {'self s/unit':>12} {'share':>7} {'calls/unit':>11}",
    ]
    for name in sorted(self_s, key=lambda k: -self_s[k]):
        lines.append(
            f"  {name:28} {self_s[name] / n:12.4f} {self_s[name] / wall:7.1%} "
            f"{calls[name] / n:11.1f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
        pins_all = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # measure the program's defaults, whatever the caller's shell sets
    from hostspeed import SpeedProbe
    from workloads import PROGRAM_ENV, WORKLOADS, Context

    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = CHECKOUT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    try:
        ctx = Context(
            CHECKOUT,
            tmp,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            pins=pins_all.get(args.workload, {}),
        )
        workload = WORKLOADS[args.workload](ctx)
        ctx.recorder.run = "setup"
        if ctx.hooks is not None:
            with ctx.hooks:
                setup = workload.setup()
            units = ctx.closed_loop(workload.unit)
        else:
            # the end-to-end times are measured beside the host's speed
            with SpeedProbe() as probe:
                setup = workload.setup()
                units = ctx.closed_loop(workload.unit)
        # for chaos8 and service_mix, ``setup`` is the list each unit
        # appends its set-up interval to
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    numpy_version = "absent"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        pass
    from repro import SimulationConfig
    from repro.sim.engine import Simulator

    core = Simulator(SimulationConfig(radix=4, warmup_cycles=0, measure_cycles=1)).core
    print(
        f"[perfbench] workload={args.workload} seed={args.seed} "
        f"trace={args.trace} units={len(units)} core={core} "
        f"python={platform.python_version()} numpy={numpy_version} nproc={len(os.sched_getaffinity(0))}"
    )
    if ctx.hooks is not None and ctx.hooks.missing:
        print(f"[perfbench] entry points not found (not traced): {sorted(set(ctx.hooks.missing))}")

    if args.trace:
        for unit in units:
            if unit.traced:
                checks = ctx.recorder.total_count("analysis.cdg.checks", [unit.run_id])
                if checks != unit.info["cdg_expected"]:
                    ctx.fail(
                        f"{unit.run_id}: {checks} CDG check(s), expected "
                        f"{unit.info['cdg_expected']} (one per applied fault event)"
                    )
        declared = spec["per_layer"]
        metrics = per_layer(workload, ctx, units)
        print(self_time_table(workload, ctx, units))
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        ctx.recorder.write(spans_path)
        print(f"[perfbench] {len(ctx.recorder.spans)} span(s) written to {spans_path}")
    else:
        declared = spec["end_to_end"]
        metrics = end_to_end(workload, units, setup, probe)
        print(
            f"[perfbench] host speed: median probe {probe.slowdown():.2f}x its reference time "
            f"({len(probe.durations)} probes); raw median unit wall {_median([u.wall for u in units]):.4f} s"
        )
    for message in ctx.errors[:20]:
        print(f"[perfbench] FAILED {message}")
    report = {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    for name, entry in report.items():
        print(f"  {name:28} {entry['value']:14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": ctx.failed == 0 and bool(units),
                "attempted": ctx.attempted,
                "failed": ctx.failed,
                "metrics": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
