"""The benchmark's three workloads.

Each workload is a closed loop driven by one caller: the next unit of
work starts only after the previous one has completed and been checked.
Inputs are built here: unit ``i`` of a run with seed ``s`` uses input
variant ``(s + i) % VARIANTS``, so every run walks the same cycle of
inputs from a seed-chosen start (the medians of two runs then cover
nearly the same inputs) and every input has pinned outputs in
``pins.json``.  The program only ever receives the generated configs,
campaigns and plans.

* ``point16`` — one paper-scale point: 16x16 torus, the paper's 5%
  fault pattern, uniform traffic at rate 0.01, run through
  ``Experiment.point(...).run(jobs=1)`` with a fresh result store.
* ``chaos8`` — the ``repro-experiments chaos --scale quick`` shape: an
  8x8 torus, three arbitrary runtime faults, staged detection (latency
  4), the reliability transport, a strict CDG re-check after every
  reconfiguration and a final drain.
* ``service_mix`` — a fresh ``python -m repro.service serve --jobs 2``
  per round; one client submits cold 8x8 sweep jobs, warm sweep jobs
  over points already stored, and one Monte-Carlo quick-plan job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import Span
from tracing import Hooks, SpanRecorder

#: distinct inputs per workload
VARIANTS = 4

#: environment variables that would change what the program measures
PROGRAM_ENV = ("REPRO_SIM_CORE", "REPRO_SCALE", "REPRO_RESULT_STORE")


def digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def percentile(values: List[float], q: int) -> float:
    """Nearest-rank percentile (``q`` in 1..99)."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


@dataclass
class Unit:
    """One measured unit of a closed loop."""

    span: Span
    #: outputs and counts the metrics are computed from
    info: Dict[str, Any]
    traced: bool = False
    run_id: str = ""

    @property
    def wall(self) -> float:
        return self.span[1] - self.span[0]


class Context:
    """Run-wide state: where to write, the seed, the deadline, the
    tracer, and the operation accounting behind ``attempted``/``failed``."""

    def __init__(
        self,
        checkout: Path,
        tmp: Path,
        *,
        seed: int,
        seconds: float,
        trace: bool,
        pins: Optional[Dict[str, Any]],
    ):
        self.checkout = checkout
        self.tmp = tmp
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        #: this workload's expected outputs per variant; None records them
        #: instead (``pin.py``)
        self.pins = pins
        self.recorder = SpanRecorder()
        self.hooks: Optional[Hooks] = Hooks(self.recorder) if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: outputs per variant, recorded when ``pins`` is None
        self.observed: Dict[str, Dict[str, Any]] = {}
        env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
        env["PYTHONPATH"] = str(checkout / "src")
        env["TMPDIR"] = str(tmp)
        #: environment of the processes the benchmark starts
        self.env = env

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def variant(self, index: int) -> int:
        """The input variant of unit ``index``."""
        return (self.seed + index) % VARIANTS

    def expect(self, variant: int, key: str, observed: Any) -> None:
        """Compare an output with its pinned value; in pinning mode,
        record it.  A mismatch counts as a failed operation."""
        if self.pins is None:
            self.observed.setdefault(str(variant), {})[key] = observed
        elif observed != self.pins.get(str(variant), {}).get(key):
            self.fail(f"variant {variant} {key}: output differs from the pinned value")

    def timed(self, name: str, fn: Callable[[], Any]) -> Tuple[Any, Span]:
        """Run the timed region of a unit (under the unit's root span when
        the unit is traced)."""
        rec = self.recorder
        start = perf_counter()
        if rec.enabled:
            value = rec.call(name, fn)
        else:
            value = fn()
        return value, (start, perf_counter())

    def closed_loop(
        self, unit_fn: Callable[[int], Unit], *, min_units: int = 3
    ) -> List[Unit]:
        """Run units back to back for ``seconds``: a new unit starts only
        while the median unit still fits before the deadline.  A traced
        run alternates blocks of ``VARIANTS`` untraced and traced units,
        so every input variant runs both ways and the untraced units
        measure the tracing overhead in the same run."""
        units: List[Unit] = []
        start = perf_counter()
        deadline = start + self.seconds
        index = 0
        while True:
            traced = self.trace and (index // VARIANTS) % 2 == 1
            run_id = f"unit{index}"
            self.recorder.run = run_id
            self.attempted += 1
            try:
                if traced:
                    with self.hooks:
                        unit = unit_fn(index)
                else:
                    unit = unit_fn(index)
            except Exception as exc:  # noqa: BLE001 — a failed unit is a data point
                self.fail(f"{run_id}: {type(exc).__name__}: {exc}")
                unit = None
            self.recorder.run = "between"
            if unit is not None:
                unit.traced = traced
                unit.run_id = run_id
                units.append(unit)
            index += 1
            now = perf_counter()
            typical = statistics.median(u.wall for u in units) if units else 0.0
            if index >= min_units and now + typical > deadline:
                return units
            # a very short --seconds still gets a traced and an untraced unit
            if index >= 2 and now > deadline + self.seconds:
                return units


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def campaign_digest(result, outcome, network: str) -> str:
    """Digest of everything deterministic a campaign replay produced."""

    def epoch(e):
        if e is None:
            return None
        return [e.label, e.start_cycle, e.cycles, e.delivered, e.avg_latency]

    return digest(
        {
            "result": result.to_dict(),
            "network": network,
            "final_cycle": outcome.final_cycle,
            "drained": outcome.drained,
            "baseline": epoch(outcome.baseline),
            "transport": dataclasses.asdict(outcome.stats)
            if outcome.stats is not None
            else None,
            "records": [
                [
                    r.index,
                    r.event.to_dict(),
                    r.applied,
                    r.cycle,
                    r.error,
                    r.time_to_recover,
                    epoch(r.epoch),
                ]
                for r in outcome.records
            ],
        }
    )


# ----------------------------------------------------------------------
# in-process simulation workloads
# ----------------------------------------------------------------------


class Point16:
    """One paper-scale point per unit (fresh result store each time)."""

    name = "point16"
    #: network builds timed in set-up (their median is ``setup_s``)
    SETUP_BUILDS = 3

    def __init__(self, ctx: Context):
        from repro import SimulationConfig

        self.ctx = ctx
        self.config = SimulationConfig(
            topology="torus",
            radix=16,
            dims=2,
            fault_percent=5,
            rate=0.01,
            warmup_cycles=200,
            measure_cycles=400,
        )

    def setup(self) -> List[Span]:
        from repro import Experiment
        from repro.sim.network import SimNetwork

        samples = []
        for _ in range(self.SETUP_BUILDS):
            start = perf_counter()
            SimNetwork(self.config)
            samples.append((start, perf_counter()))
        # the executor reuses one network per process across points, as in
        # a sweep; a 10-cycle point with the same network fills that reuse
        # so every measured unit sees the same state
        Experiment.point(replace(self.config, warmup_cycles=0, measure_cycles=10)).run(
            jobs=1, cache=False
        )
        return samples

    def unit(self, index: int) -> Unit:
        from repro import Experiment
        from repro.exec.store import ResultStore

        variant = self.ctx.variant(index)
        config = replace(self.config, seed=1 + variant)
        root = self.ctx.tmp / f"store-{index}"
        rs, span = self.ctx.timed(
            self.name,
            lambda: Experiment.point(config).run(jobs=1, store=ResultStore(root)),
        )
        shutil.rmtree(root, ignore_errors=True)
        result = rs[0]
        self.ctx.expect(variant, "result", digest(result.to_dict()))
        return Unit(
            span,
            {
                "variant": variant,
                "cycles": self.config.warmup_cycles + self.config.measure_cycles,
                "delivered": result.delivered,
                "flits": result.delivered_flits,
                "retransmissions": 0,
                "cdg_expected": 0,
                "hit_ratio": rs.stats.hit_ratio,
                "infra_retries": rs.stats.infra_retries,
                "infra_failures": rs.stats.infra_failures,
            },
        )


class Chaos8:
    """One staged-detection chaos campaign replay per unit."""

    name = "chaos8"
    #: events, first event cycle, spacing, detection latency (cyc/hop)
    EVENTS, START, INTERVAL, LATENCY = 3, 600, 900, 4
    #: traffic seed per input variant: seed 11 is the ``chaos`` command's
    #: default, the others end their drain within 3% of its final cycle,
    #: so every variant costs about the same
    TRAFFIC_SEEDS = (11, 22, 28, 30)

    def __init__(self, ctx: Context):
        from repro import SimulationConfig

        self.ctx = ctx
        self.config = SimulationConfig(
            topology="torus",
            radix=8,
            dims=2,
            rate=0.010,
            warmup_cycles=0,
            measure_cycles=10,
            detection_latency=self.LATENCY,
            strict_invariants=True,
        )
        self.setup_samples: List[Span] = []

    def setup(self) -> List[Span]:
        # each unit times the set-up it uses
        return self.setup_samples

    def unit(self, index: int) -> Unit:
        from repro import Experiment, FaultCampaign, ReliabilityConfig, make_network

        variant = self.ctx.variant(index)
        start = perf_counter()
        campaign = FaultCampaign.chaos(
            make_network("torus", 8, 2),
            count=self.EVENTS,
            start=self.START,
            interval=self.INTERVAL,
            seed=29,
        )
        experiment = Experiment.campaign(
            replace(self.config, seed=self.TRAFFIC_SEEDS[variant]),
            campaign,
            reliability=ReliabilityConfig(timeout=4 * self.INTERVAL // 5),
            settle_cycles=self.INTERVAL,
            label="chaos8",
        )
        self.setup_samples.append((start, perf_counter()))
        rs, span = self.ctx.timed(
            self.name, lambda: experiment.run(jobs=1, cache=False)
        )
        result, outcome = rs[0], rs.outcomes[0]
        self.ctx.expect(variant, "outcome", campaign_digest(result, outcome, rs.descriptions[0]))
        return Unit(
            span,
            {
                "variant": variant,
                "cycles": outcome.final_cycle,
                "delivered": result.delivered,
                "flits": result.delivered_flits,
                "retransmissions": result.retransmitted_messages,
                "cdg_expected": outcome.applied_events,
                "hit_ratio": rs.stats.hit_ratio,
                "infra_retries": rs.stats.infra_retries,
                "infra_failures": rs.stats.infra_failures,
            },
        )


# ----------------------------------------------------------------------
# the service job mix
# ----------------------------------------------------------------------


@dataclass
class JobTiming:
    kind: str  #: "cold", "warm" or "mc"
    span: Span  #: submit -> result fetched
    admit: float  #: POST /jobs
    first_event: float  #: submit returned -> first progress event
    tail: float  #: last progress event -> terminal line
    fetch: float  #: GET /jobs/<id>/result
    result: Dict[str, Any]

    @property
    def latency(self) -> float:
        return self.span[1] - self.span[0]


class ServiceMix:
    """One round per unit: start a server under a fresh root, run the
    job mix, stop it with SIGTERM."""

    name = "service_mix"
    COLD_JOBS = 4
    WARM_PER_COLD = 12
    RATES = (0.008, 0.014)
    WARMUP, MEASURE = 150, 450
    #: socket timeout of every client request, seconds
    TIMEOUT = 30.0

    def __init__(self, ctx: Context):
        from repro.mc import MCCell, MCPlan, MCSettings

        self.ctx = ctx
        # the `repro-experiments mc --scale quick` plan
        cells = tuple(
            MCCell(radix=8, num_node_faults=n, num_link_faults=l, policy=policy)
            for policy in ("ft", "adaptive")
            for n, l in ((0, 1), (1, 1), (2, 2))
        )
        plan = MCPlan(
            cells=cells,
            settings=MCSettings(half_width=0.04, shard_size=100, max_shards=8, min_shards=2),
            master_seed=7,
        )
        self.mc = {"kind": "mc", "mc": plan.to_payload()}
        self.setup_samples: List[Span] = []
        self.rss: List[float] = []

    def setup(self) -> List[Span]:
        # each round starts its own server; those start times are set-up
        return self.setup_samples

    def sweeps(self, variant: int) -> List[Tuple[Dict[str, Any], List[Dict[str, Any]]]]:
        """``(cold spec, warm specs)`` per cold job of a round.  The warm
        specs are distinct (so are distinct jobs) but name only the cold
        job's points, so the store serves every one of them."""
        from repro import SimulationConfig

        sequences = [
            list(seq)
            for length in range(1, 5)
            for seq in itertools.product(self.RATES, repeat=length)
            if list(seq) != list(self.RATES)
        ][: self.WARM_PER_COLD]
        pairs = []
        for j in range(self.COLD_JOBS):
            config = SimulationConfig(
                topology="torus",
                radix=8,
                dims=2,
                fault_percent=1,
                warmup_cycles=self.WARMUP,
                measure_cycles=self.MEASURE,
                seed=100 * variant + j + 1,
            ).to_canonical()
            cold = {"kind": "sweep", "config": config, "rates": list(self.RATES)}
            pairs.append((cold, [dict(cold, rates=seq) for seq in sequences]))
        return pairs

    # --- server lifecycle ----------------------------------------------
    def _start(self, root: Path) -> Tuple[subprocess.Popen, str]:
        from repro.service.client import ClientError, ServiceClient, ServiceUnavailable

        root.mkdir(parents=True)
        info_path = root / "server.json"
        with open(root / "server.log", "wb") as log:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve", "--root", str(root), "--jobs", "2"],
                cwd=self.ctx.checkout,
                env=self.ctx.env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            while True:
                if info_path.is_file():
                    url = json.loads(info_path.read_text(encoding="utf-8"))["url"]
                    try:
                        ServiceClient(url, attempts=1, timeout=5).status()
                        break
                    except (ServiceUnavailable, ClientError):
                        pass
                if proc.poll() is not None:
                    raise RuntimeError(f"server exited with {proc.returncode} during start")
                if perf_counter() - start > 60:
                    raise TimeoutError("server did not answer /status within 60 s")
                time.sleep(0.005)
        except BaseException:
            self._stop(proc)
            raise
        self.setup_samples.append((start, perf_counter()))
        return proc, url

    def _stop(self, proc: subprocess.Popen) -> None:
        """SIGTERM (the graceful drain ``serve`` installs), then make sure
        nothing of the server's process group survives."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.ctx.fail("server ignored SIGTERM for 20 s")
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGKILL)

    # --- one job -------------------------------------------------------
    def _job(self, client, kind: str, spec: Dict[str, Any]) -> JobTiming:
        rec = self.ctx.recorder
        t0 = perf_counter()
        summary = client.submit(spec)
        t1 = perf_counter()
        job_id = summary["job"]
        first = last = terminal_at = None
        terminal: Optional[Dict[str, Any]] = None
        for line in client.events(job_id):
            now = perf_counter()
            if "state" in line:  # the terminal summary line
                terminal, terminal_at = line, now
                break
            if first is None:
                first = now
            last = now
        if terminal is None or first is None:
            raise RuntimeError(f"{kind} job {job_id[:12]}: event stream ended early")
        if terminal.get("state") != "done":
            raise RuntimeError(f"{kind} job {job_id[:12]} ended {terminal.get('state')}: {terminal.get('error')}")
        result = client.result(job_id)
        t3 = perf_counter()
        if result is None or result.get("failures"):
            raise RuntimeError(f"{kind} job {job_id[:12]} has no clean result")
        if rec.enabled:
            job = rec.add(f"service.job.{kind}", t0, t3)
            rec.add("service.admit", t0, t1, job)
            rec.add("service.first_event", t1, first, job)
            rec.add("service.run", first, last, job)
            rec.add("service.tail", last, terminal_at, job)
            rec.add("service.result_fetch", terminal_at, t3, job)
        return JobTiming(kind, (t0, t3), t1 - t0, first - t1, terminal_at - last, t3 - terminal_at, result)

    def _mix(self, client, variant: int) -> List[JobTiming]:
        jobs: List[JobTiming] = []
        for cold_spec, warm_specs in self.sweeps(variant):
            cold = self._job(client, "cold", cold_spec)
            jobs.append(cold)
            by_rate = dict(zip(self.RATES, cold.result["results"]))
            for spec in warm_specs:
                warm = self._job(client, "warm", spec)
                jobs.append(warm)
                if warm.result["results"] != [by_rate[r] for r in spec["rates"]]:
                    raise RuntimeError("warm job points differ from the cold job's")
        jobs.append(self._job(client, "mc", self.mc))
        return jobs

    def unit(self, index: int) -> Unit:
        from repro.service.client import ServiceClient

        variant = self.ctx.variant(index)
        root = self.ctx.tmp / f"service-{index}"
        proc, url = self._start(root)
        try:
            client = ServiceClient(url, attempts=1, timeout=self.TIMEOUT)
            jobs, span = self.ctx.timed(self.name, lambda: self._mix(client, variant))
            status = client.status()
            self.rss.append(vm_hwm_mb(proc.pid))
        except Exception:
            log = (root / "server.log").read_text(encoding="utf-8", errors="replace")
            sys.stderr.write(f"[perfbench] server log tail:\n{log[-2000:]}\n")
            raise
        finally:
            self._stop(proc)
        self.ctx.attempted += len(jobs)
        cold = [j for j in jobs if j.kind == "cold"]
        mc = next(j for j in jobs if j.kind == "mc")
        self.ctx.expect(variant, "cold", [digest(j.result["results"]) for j in cold])
        self.ctx.expect(variant, "mc", [digest(cell) for cell in mc.result["results"]])
        for job in cold:
            if job.result["stats"]["executed"] != len(self.RATES):
                raise RuntimeError("a cold job was not executed")
        for job in jobs:
            if job.kind == "warm" and job.result["stats"]["executed"] != 0:
                raise RuntimeError("a warm job executed points instead of reading the store")
        stats = status["stats"]
        points = [p for j in cold for p in j.result["results"]]
        return Unit(
            span,
            {
                "variant": variant,
                "jobs": jobs,
                "cycles": len(points) * (self.WARMUP + self.MEASURE),
                "delivered": sum(p["delivered"] for p in points),
                "flits": sum(p["delivered_flits"] for p in points),
                "retransmissions": 0,
                "cdg_expected": 0,
                "hit_ratio": stats["hit_ratio"],
                "infra_retries": stats["infra_retries"],
                "infra_failures": stats["infra_failures"],
            },
        )


WORKLOADS = {cls.name: cls for cls in (Point16, Chaos8, ServiceMix)}
