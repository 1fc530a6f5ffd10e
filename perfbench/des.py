"""DES workloads: ``des_paper`` and ``des_stress``.

Each run builds its transfer list from the seed, then runs it in
rounds (every transfer of the list once per round, the same inputs
every round) through the public ``run_fobs_transfer``.  Rounds repeat
until another would overrun ``--seconds``; a round always completes, so
every transfer kind is measured at least once.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from common import (SETUP_REPEATS, WORK_DIR, child_env, geomean, median,
                    ratio, tail)
from layertrace import LayerTracer, layer_metrics

MB = 1e6

#: The paper's Figure 1/2 sweep: both 100 Mb/s paths, three ACK rates.
PAPER_TOPOLOGIES = ("short_haul", "long_haul")
PAPER_ACK_FREQUENCIES = (16, 64, 256)
PAPER_NBYTES = 40_000_000

#: Outside the paper's envelope: (kind, bandwidth b/s, loss rate).
STRESS_LEGS = (("gigabit_lossless", 1e9, 0.0), ("lossy_100m", 100e6, 0.02))
STRESS_NBYTES = 16_000_000
STRESS_ACK_FREQUENCY = 16


@dataclass(frozen=True)
class TransferSpec:
    """One generated DES input."""

    kind: str
    nbytes: int
    ack_frequency: int
    net_seed: int
    #: ``None`` for a paper topology preset; else (bandwidth, loss).
    path: Optional[tuple[float, float]] = None
    topology: str = ""
    record_events: bool = False


def make_inputs(workload: str, seed: int) -> list[TransferSpec]:
    """The transfer list a seed generates: object sizes shaved by under
    one packet, network RNG seeds, and the order of the list."""
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    if workload == "des_paper":
        for topo in PAPER_TOPOLOGIES:
            for f in PAPER_ACK_FREQUENCIES:
                specs.append(TransferSpec(
                    kind=f"{topo}/F{f}",
                    nbytes=PAPER_NBYTES - rng.randrange(1024),
                    ack_frequency=f, net_seed=rng.randrange(1 << 31),
                    topology=topo))
    elif workload == "des_stress":
        for kind, bandwidth, loss in STRESS_LEGS:
            specs.append(TransferSpec(
                kind=kind,
                nbytes=STRESS_NBYTES - rng.randrange(1024),
                ack_frequency=STRESS_ACK_FREQUENCY,
                net_seed=rng.randrange(1 << 31), path=(bandwidth, loss),
                record_events=True))
    else:
        raise ValueError(f"unknown DES workload {workload!r}")
    rng.shuffle(specs)
    return specs


def build_network(spec: TransferSpec):
    from repro.simnet import topology
    from repro.simnet.topology import HopSpec, PathSpec, build_path

    if spec.path is None:
        return getattr(topology, spec.topology)(seed=spec.net_seed)
    bandwidth, loss = spec.path
    path = PathSpec(spec.kind, "a", "b",
                    hops=(HopSpec(bandwidth, 1e-3, queue_bytes=1 << 20,
                                  loss_rate=loss),),
                    bottleneck_bps=bandwidth)
    return build_path(path, seed=spec.net_seed)


def fingerprint(stats) -> tuple:
    """The simulated outcome, which must not depend on wall time or tracing."""
    return (stats.completed, stats.failed, stats.timed_out, stats.duration,
            stats.packets_sent, stats.retransmissions, stats.wasted_fraction,
            stats.receiver_socket_drops, stats.acks_sent)


@dataclass
class TransferResult:
    spec: TransferSpec
    wall: float
    #: CPU seconds of the operation itself (checks excluded).
    cpu: float
    stats: object
    #: Simulator events executed, and JSONL lines recorded.
    sim_events: int
    event_lines: int
    error: Optional[str]


def _check_event_log(path: str, lines_written: int) -> Optional[str]:
    """The JSONL log holds every event written and ends with transfer_end."""
    with open(path, "rb") as fh:
        count = sum(1 for _ in fh)
        fh.seek(max(0, os.path.getsize(path) - 4096))
        last = fh.read().splitlines()[-1] if count else b""
    if count != lines_written:
        return f"event log has {count} lines, sink wrote {lines_written}"
    if b'"transfer_end"' not in last:
        return "event log does not end with transfer_end"
    return None


def run_transfer(spec: TransferSpec, workdir: str,
                 tracer: Optional[LayerTracer] = None) -> TransferResult:
    """One operation: build the network, transfer, check the outcome.

    The wall time covers what a user of ``run_fobs_transfer`` waits
    for: building the network, the transfer, and closing the event log.
    """
    from repro.core import FobsConfig
    from repro.core import session
    from repro.telemetry import EventBus, JsonlSink

    def bench(label, fn, *args):
        return fn(*args) if tracer is None else tracer.span(
            f"bench:{label}", fn, *args)

    log_path = os.path.join(workdir, "events.jsonl")
    c0, t0 = time.process_time(), time.perf_counter()
    net = bench("build_network", build_network, spec)
    bus = sink = None
    if spec.record_events:
        sink = JsonlSink(log_path)
        bus = EventBus([sink])
    stats = session.run_fobs_transfer(
        net, spec.nbytes, FobsConfig(ack_frequency=spec.ack_frequency),
        telemetry=bus)
    if bus is not None:
        bus.close()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0

    error = None
    if not stats.ok:
        error = f"{spec.kind}: transfer did not complete ({stats})"
    elif stats.npackets != -(-spec.nbytes // 1024):
        error = f"{spec.kind}: {stats.npackets} packets for {spec.nbytes} bytes"
    lines = 0
    if sink is not None:
        lines = sink.lines_written
        error = error or bench("check_event_log", _check_event_log,
                               log_path, lines)
        os.remove(log_path)
    return TransferResult(spec, wall, cpu, stats, net.sim.processed, lines, error)


def _run_round(specs, workdir, tracer=None) -> list[TransferResult]:
    return [run_transfer(spec, workdir, tracer) for spec in specs]


def _done(t0: float, round_start: float, seconds: float) -> bool:
    """Stop when another round would end further from ``seconds`` than
    stopping now does."""
    now = time.perf_counter()
    return now - t0 + (now - round_start) / 2.0 > seconds


def measure_setup(repeats: int) -> list[float]:
    """Fresh interpreter until a transfer can start: importing ``repro``
    and loading the C event loop (its build cache already warm)."""
    code = ("import repro\nfrom repro.simnet import engine\n"
            "print('ready', engine._evloop is not None, flush=True)\n")
    env = child_env()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {line!r}")
    return samples


def _mark_mismatches(reference: list[TransferResult],
                     results: list[TransferResult], what: str) -> None:
    """Flag each result whose simulated outcome differs from the
    reference run of the same input."""
    for ref, r in zip(reference, results):
        if r.error is None and fingerprint(r.stats) != fingerprint(ref.stats):
            r.error = f"{r.spec.kind}: {what}"


def _summary(results: list[TransferResult]) -> dict:
    """Per-kind medians and the workload totals for one list of results."""
    by_kind: dict[str, list[TransferResult]] = {}
    for r in results:
        by_kind.setdefault(r.spec.kind, []).append(r)
    walls = {k: median([r.wall for r in rs]) for k, rs in by_kind.items()}
    first = [rs[0] for rs in by_kind.values()]
    packets = sum(r.stats.npackets for r in first)
    nbytes = sum(r.spec.nbytes for r in first)
    sent = sum(r.stats.packets_sent for r in first)
    round_wall = sum(walls.values())
    return {
        "by_kind": by_kind,
        "goodput_mbps": ratio(nbytes * 8.0, round_wall) / 1e6,
        "op_s.p50": geomean(list(walls.values())),
        "datagrams_per_pkt": ratio(sent, packets),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    specs = make_inputs(workload, seed)
    workdir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # Warm-up: one small transfer per kind, untimed, so lazy imports
        # and first-call costs land outside the measured rounds.
        for spec in specs:
            run_transfer(dataclasses.replace(spec, nbytes=64 * 1024), workdir)
        if trace:
            return _run_traced(specs, workdir, seconds)
        return _run_plain(specs, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_plain(specs, workdir, seconds) -> dict:
    setup = measure_setup(SETUP_REPEATS)
    rounds: list[list[TransferResult]] = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds.append(_run_round(specs, workdir))
        if _done(t0, start, seconds):
            break
    for later in rounds[1:]:
        _mark_mismatches(rounds[0], later, "outcome differs from round 1")
    results = [r for rs in rounds for r in rs]
    errors = [r.error for r in results if r.error]
    s = _summary(results)
    total_mb = sum(r.spec.nbytes for r in results) / MB
    metrics = {
        "goodput_mbps": (s["goodput_mbps"], "Mb/s"),
        "op_s.p50": (s["op_s.p50"], "s"),
        "cpu_ms_per_mb": (ratio(sum(r.cpu for r in results) * 1e3,
                                total_mb), "ms/MB"),
        "datagrams_per_pkt": (s["datagrams_per_pkt"], "1/pkt"),
        "setup_s": (median(setup), "s"),
    }
    detail = {
        "rounds": len(rounds),
        "measured_s": time.perf_counter() - t0,
        "setup_samples": setup,
        "ops": {k: tail([r.wall for r in rs]) for k, rs in s["by_kind"].items()},
        "waste_by_kind": {k: rs[0].stats.wasted_fraction
                          for k, rs in s["by_kind"].items()},
    }
    return {"metrics": metrics, "attempted": len(results),
            "failed": len(errors), "errors": errors, "detail": detail}


def _run_traced(specs, workdir, seconds) -> dict:
    """Untraced and traced rounds in pairs on the same inputs: the pair
    gives the tracing overhead and must agree on every simulated outcome."""
    plain: list[TransferResult] = []
    traced: list[TransferResult] = []
    tracer = LayerTracer()
    t0 = time.perf_counter()
    windows = 0.0
    while True:
        start = time.perf_counter()
        plain += _run_round(specs, workdir)
        tracer.install()
        try:
            w0 = time.perf_counter()
            traced += _run_round(specs, workdir, tracer)
            windows += time.perf_counter() - w0
        finally:
            tracer.uninstall()
        if _done(t0, start, seconds):
            break
    _mark_mismatches(plain, traced, "traced outcome differs from untraced")
    errors = [r.error for r in plain + traced if r.error]
    totals = tracer.totals()
    layers = layer_metrics(totals, {
        "pkts": sum(r.stats.npackets for r in traced),
        "mb": sum(r.spec.nbytes for r in traced) / MB,
        "windows": windows,
        "overhead": ratio(sum(r.wall for r in traced),
                          sum(r.wall for r in plain)) - 1.0,
        "sim_events": sum(r.sim_events for r in traced),
        "datagrams": sum(r.stats.packets_sent for r in traced),
        "rxbuf_drops": sum(r.stats.receiver_socket_drops for r in traced),
        "acks": sum(r.stats.acks_processed for r in traced),
        "dups": sum(r.stats.duplicates_received for r in traced),
        "acks_built": sum(r.stats.acks_sent for r in traced),
        "events": sum(r.event_lines for r in traced),
    })
    detail = {"pairs": len(traced) // max(len(specs), 1),
              "layer_totals": totals}
    return {"layers": layers, "attempted": len(plain) + len(traced),
            "failed": len(errors), "errors": errors, "detail": detail}
