"""The repository benchmark: QUAC-TRNG draws as a library caller sees them.

Run every workload (each in a fresh interpreter) and print its
end-to-end metrics::

    python3 perfbench/run.py [--seed 2021] [--seconds 10] [--trace 0|1]

Run one workload; the last line of output is a JSON result::

    python3 perfbench/run.py --workload keyserve --seed 2021 --seconds 10

``--trace 1`` runs the draw phase half untraced, half traced and prints
the per-layer split instead of the end-to-end metrics.  Workloads,
metrics, predictions and the tracer's blind spots are described in
``perfbench/README.md``.

Every workload is a closed loop: one consumer calls
``SystemTrng.random_bytes`` back to back with no think time, on the
paper's 4-channel system (Table 3 modules M13, M4, M15, M1) at the
small geometry.  The draws are checked: every reply has the requested
length, the monobit bias stays within :data:`MONOBIT_SIGMAS` standard
deviations, and the bytes equal a serial, synchronous, unmonitored
replay of the same seed and request sequence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The Table 3 population's ``root_seed`` the paper reproduction uses.
DEFAULT_SEED = 2021
#: Seed held out while the benchmark and later changes are tuned: a
#: claimed gain must also hold on it.
HELD_OUT_SEED = 7

#: The paper's 4-channel system, one Table 3 module per channel.
CHANNEL_MODULES = ("M13", "M4", "M15", "M1")
SEGMENTS_PER_BANK = 64
CACHE_BLOCKS_PER_ROW = 8
#: Equal time windows a draw phase is split into; the end-to-end
#: timings report the median over the windows.
WINDOWS = 5
#: Setups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Monobit check: the share of ones may miss 1/2 by this many standard
#: deviations of a fair coin over the delivered bits.
MONOBIT_SIGMAS = 6.0

#: Environment the library or its test legs read; removed so that no
#: setting outside the workload table changes what a workload measures.
PINNED_ENV = ("REPRO_EXECUTION_BACKEND", "REPRO_BENCH_SCALE")


@dataclass(frozen=True)
class Workload:
    """What a workload pins: backend spec, harvest mode, monitors and
    the size of every draw."""

    backend: str
    async_harvest: bool
    monitored: bool
    draw_bytes: int


WORKLOADS: Dict[str, Workload] = {
    "bulk-stream": Workload("serial", async_harvest=False, monitored=False,
                            draw_bytes=1 << 20),
    "keyserve": Workload("serial", async_harvest=False, monitored=False,
                         draw_bytes=32),
    "monitored-remote": Workload("remote:2", async_harvest=True,
                                 monitored=True, draw_bytes=1 << 20),
}


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``kind`` (``end_to_end`` or
    ``per_layer``), as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as declared:
        return {metric["name"]: metric["unit"]
                for metric in json.load(declared)[kind]}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def build_system(workload: Workload, seed: int):
    """The workload's system, and its set-up seconds per stage."""
    from repro.core import HealthMonitor, SystemTrng, resolve_backend
    from repro.dram.geometry import DramGeometry
    from repro.dram.module_factory import build_table3_population

    perf = time.perf_counter
    geometry = DramGeometry.small(segments_per_bank=SEGMENTS_PER_BANK,
                                  cache_blocks_per_row=CACHE_BLOCKS_PER_ROW)
    start = perf()
    modules = build_table3_population(geometry, root_seed=seed,
                                      names=list(CHANNEL_MODULES))
    built = perf()
    backend = resolve_backend(workload.backend)
    if hasattr(backend, "ping") and not all(backend.ping()):
        raise RuntimeError(f"backend {backend!r} did not answer a ping")
    warmed = perf()
    monitors = ([HealthMonitor() for _ in modules] if workload.monitored
                else None)
    system = SystemTrng(
        modules, entropy_per_block=256.0 * geometry.row_bits / 65536,
        backend=backend, monitors=monitors,
        async_harvest=workload.async_harvest)
    constructed = perf()
    return system, {"setup.modules_s": built - start,
                    "setup.backend_s": warmed - built,
                    "setup.generators_s": constructed - warmed}


def set_up(workload: Workload, seed: int):
    """Set up :data:`SETUP_REPEATS` times; keep the last system.

    Each repeat pays everything a user pays: module build
    (calibration), backend warm-up (the cluster spawn, for ``remote``),
    characterization and generator construction.  Between repeats the
    backend is closed, so a remote cluster is spawned afresh.
    """
    stages: List[Dict[str, float]] = []
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            system.backend.close()
        system, times = build_system(workload, seed)
        stages.append(times)
    medians = {stage: statistics.median(t[stage] for t in stages)
               for stage in stages[0]}
    setup_s = statistics.median(sum(t.values()) for t in stages)
    return system, setup_s, medians


# ----------------------------------------------------------------------
# The draw loop
# ----------------------------------------------------------------------

@dataclass
class Phase:
    """One timed draw phase: when each draw began, and its latency."""

    start: float
    began: List[float] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)
    #: Bytes each draw delivered (0 for a failed draw).
    delivered: List[int] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def draws(self) -> int:
        return len(self.began)

    @property
    def failed(self) -> int:
        return self.delivered.count(0)

    @property
    def throughput_mbps(self) -> float:
        return 8 * sum(self.delivered) / self.wall_s / 1e6

    def window_medians(self) -> Dict[str, float]:
        """Throughput, p50 and p99 of each of :data:`WINDOWS` equal time
        windows, and the median of each over the windows.

        A window holds the draws that began in it.  The median over
        windows keeps a burst of interference from another process out
        of the run's figures.  On the 1 MiB workloads a window holds
        about ten draws, so its p99 is close to its slowest draw.
        """
        import numpy as np
        began = np.asarray(self.began)
        latency = np.asarray(self.latency)
        delivered = np.asarray(self.delivered)
        window = self.wall_s / WINDOWS
        index = np.minimum(((began - self.start) / window).astype(int),
                           WINDOWS - 1)
        per_window: Dict[str, List[float]] = {
            "throughput_mbps": [], "draw_p50_us": [], "draw_p99_us": []}
        for k in range(WINDOWS):
            chosen = index == k
            if not chosen.any():
                continue
            first, last = np.flatnonzero(chosen)[[0, -1]]
            span = began[last] + latency[last] - began[first]
            per_window["throughput_mbps"].append(
                8 * int(delivered[chosen].sum()) / span / 1e6)
            lat_us = latency[chosen] * 1e6
            per_window["draw_p50_us"].append(np.percentile(lat_us, 50))
            per_window["draw_p99_us"].append(np.percentile(lat_us, 99))
        return {metric: float(statistics.median(values))
                for metric, values in per_window.items()}


def draw_phase(system, n_bytes: int, seconds: float, digest,
               tracer=None) -> Phase:
    """Draw ``n_bytes`` back to back for ``seconds`` (closed loop,
    at least one draw)."""
    from repro.errors import ReproError

    perf = time.perf_counter
    draw = system.random_bytes
    phase = Phase(start=perf())
    deadline = phase.start + seconds
    while True:
        if tracer is not None:
            tracer.draw_id = phase.draws
        began = perf()
        if phase.draws and began >= deadline:
            break
        try:
            out = draw(n_bytes)
        except ReproError:
            out = None
        phase.latency.append(perf() - began)
        phase.began.append(began)
        if out is None or len(out) != n_bytes:
            phase.delivered.append(0)
            continue
        phase.delivered.append(n_bytes)
        digest.update(out)
    phase.wall_s = perf() - phase.start
    return phase


def replay(seed: int, n_draws: int, n_bytes: int) -> Tuple[str, int]:
    """Digest and ones count of the serial, synchronous, unmonitored
    reference stream for the same seed and request sequence."""
    reference, _ = build_system(
        Workload("serial", async_harvest=False, monitored=False,
                 draw_bytes=n_bytes), seed)
    digest = hashlib.sha256()
    ones = 0
    for _ in range(n_draws):
        out = reference.random_bytes(n_bytes)
        digest.update(out)
        ones += int.from_bytes(out, "little").bit_count()
    return digest.hexdigest(), ones


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def traced_run(system, workload: Workload, seconds: float, digest,
               names, setup_stages: Dict[str, float]
               ) -> Tuple[List[Phase], Dict[str, float]]:
    """Draw untraced for half of ``seconds``, then traced for the other
    half; return both phases and the per-layer metrics ``names``."""
    from tracing import Tracer, trace_layers

    untraced = draw_phase(system, workload.draw_bytes, seconds / 2, digest)
    backend = system.backend
    remote = hasattr(backend, "request_count")
    requests_before = backend.request_count() if remote else 0
    engine = system.harvest_engine if workload.async_harvest else None
    if engine is not None:
        planned_before = engine.rounds_planned
        cancelled_before = engine.rounds_cancelled
    tracer = Tracer()
    trace_layers(tracer, system)
    try:
        phase = draw_phase(system, workload.draw_bytes, seconds / 2,
                           digest, tracer)
    finally:
        tracer.restore()

    main, background = tracer.layer_times()
    counts = tracer.counts
    values: Dict[str, float] = {name: 0.0 for name in names}
    for totals in (main, background):
        for layer, layer_seconds in totals.items():
            values[layer] += layer_seconds
    values.update({name: counts[name] for name in counts
                   if name in values})
    sampled = counts["dram.sampled_bits"]
    values["dram.random_bitline_ratio"] = (
        counts["dram.random_bitlines"] / sampled if sampled else 0.0)
    refills = tracer.draws_touching(("core.plan_s", "core.gather_s"))
    values["bitops.pool_hit_ratio"] = 1.0 - refills / phase.draws
    if engine is not None:
        values["harvest.rounds_planned"] = \
            engine.rounds_planned - planned_before
        values["harvest.rounds_cancelled"] = \
            engine.rounds_cancelled - cancelled_before
    if remote and counts["core.rounds"]:
        values["remote.round_trips_per_round"] = (
            (backend.request_count() - requests_before)
            / counts["core.rounds"])
    values.update(setup_stages)
    values["trace.wall_s"] = phase.wall_s
    values["other_s"] = phase.wall_s - sum(main.values())
    values["trace.overhead"] = \
        untraced.throughput_mbps / phase.throughput_mbps - 1.0
    return [untraced, phase], values


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    import numpy as np

    workload = WORKLOADS[name]
    units = declared_units("per_layer" if trace else "end_to_end")
    system, setup_s, setup_stages = set_up(workload, seed)
    print(f"workload {name}: seed {seed}, backend {system.backend!r}, "
          f"async_harvest={workload.async_harvest}, "
          f"monitored={workload.monitored}, "
          f"draw {workload.draw_bytes} B, python "
          f"{platform.python_version()}, numpy {np.__version__}, "
          f"nproc {len(os.sched_getaffinity(0))}", flush=True)
    digest = hashlib.sha256()
    try:
        if trace:
            phases, metrics = traced_run(system, workload, seconds, digest,
                                         units, setup_stages)
        else:
            phase = draw_phase(system, workload.draw_bytes, seconds,
                               digest)
            phases = [phase]
        peak_rss_mb = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scheduled_gbps = system.system_throughput_gbps()
    finally:
        system.backend.close()

    attempted = sum(p.draws for p in phases)
    failed = sum(p.failed for p in phases)
    expected, ones = replay(seed, attempted, workload.draw_bytes)
    bits = 8 * attempted * workload.draw_bytes
    bias = abs(ones / bits - 0.5)
    bias_bound = MONOBIT_SIGMAS * 0.5 / bits ** 0.5
    checks = {
        "every draw returned the requested bytes": failed == 0,
        f"monobit bias {bias:.2e} within {bias_bound:.2e}":
            bias <= bias_bound,
        "bytes equal the serial synchronous unmonitored replay":
            digest.hexdigest() == expected,
    }
    for check, passed in checks.items():
        print(f"  check {'ok  ' if passed else 'FAIL'} {check}")

    if not trace:
        metrics = {
            **phase.window_medians(),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "scheduled_gbps": scheduled_gbps,
        }
        print(f"  {phase.draws} draws timed in {WINDOWS} windows; "
              f"scheduled_gbps is simulated DRAM time, the timings host time")
    print(f"  {'error_ratio':<28} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted} draws failed)")
    for metric, unit in units.items():
        print(f"  {metric:<28} {metrics[metric]:>16.6f} {unit}")
    return {"correct": all(checks.values()), "attempted": attempted,
            "failed": failed,
            "metrics": {metric: {"value": metrics[metric], "unit": unit}
                        for metric, unit in units.items()}}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this interpreter "
                             "(default: every workload, one fresh "
                             "interpreter each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"Table 3 population root seed (default "
                             f"{DEFAULT_SEED}; held-out seed "
                             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the draw phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer split instead of end-to-end")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    for variable in PINNED_ENV:
        os.environ.pop(variable, None)

    if args.workload is None:
        status = 0
        for name in WORKLOADS:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds),
                 "--trace", str(args.trace)])
            status = status or child.returncode
        return status

    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
