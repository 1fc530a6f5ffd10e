"""Autotuning wired through the backends: DES fairness, pacing clamps.

The DES test is the satellite regression from the issue: two tuned
senders sharing the contended bottleneck must converge to a fair split
(Jain >= 0.9) — and do so with far less waste than the greedy blast.
The pump-hint test pins the stale-sleep fix: a pacing wait hint is
always short enough that a mid-wait allocator raise takes effect
promptly instead of after a sleep computed against the old rate.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.core.config import FobsConfig
from repro.server.sim import SimTransferSpec, run_sim_server
from repro.simnet.topology import contended_path
from repro.tuning import TuningConfig

pytestmark = pytest.mark.tuning


def test_two_tuned_senders_share_fairly():
    net = contended_path(seed=3)
    specs = [SimTransferSpec(nbytes=8_000_000, arrival=0.05 * i,
                             client=f"c{i}") for i in range(2)]
    result = run_sim_server(net, specs, config=FobsConfig(ack_frequency=32),
                            max_active=4, time_limit=120,
                            tuning=TuningConfig())
    stats = [s for s in result.stats if s is not None]
    assert len(stats) == 2 and all(s.ok for s in stats)
    assert result.jain_fairness() >= 0.9
    sent = sum(s.packets_sent for s in stats)
    required = sum(s.npackets for s in stats)
    # Greedy on this path wastes ~1.4x the object; tuned senders stay
    # well under half that.
    assert (sent - required) / required < 0.5


def test_tuned_des_run_is_deterministic():
    def run():
        net = contended_path(seed=7)
        specs = [SimTransferSpec(nbytes=4_000_000, arrival=0.05 * i,
                                 client=f"c{i}") for i in range(2)]
        result = run_sim_server(net, specs,
                                config=FobsConfig(ack_frequency=32),
                                max_active=4, time_limit=120,
                                tuning=TuningConfig())
        return [(s.packets_sent, s.retransmissions, s.duration)
                for s in result.stats if s is not None]

    assert run() == run()


def test_pump_hint_clamped_for_prompt_rate_raises():
    """daemon._pump_entry never asks to sleep past the clamp.

    At 1 kb/s a 1300-byte datagram's token wait is ~10 s; if the event
    loop honored it, an allocator raise mid-wait would sit unused for
    that long.  The returned hint must be clamped (<= 0.02 s) so the
    pump re-checks the bucket — which re-reads the *current* rate —
    promptly.
    """
    from repro.core.rate import TokenBucket
    from repro.server.daemon import ObjectServer, _SendEntry

    sender = SimpleNamespace(complete=False)
    entry = _SendEntry(
        key=1, session=None, sender=sender, data=b"", config=None,
        conn=SimpleNamespace(addr=("127.0.0.1", 1)), name="x")
    entry.data_addr = ("127.0.0.1", 9)
    now = time.monotonic()
    entry.pacer = TokenBucket()
    entry.pacer.set_rate(1000.0, now)
    while entry.pacer.take(1300, now):  # drain the burst allowance
        pass
    entry.pending.append(b"x" * 1300)
    assert entry.pacer.wait_hint(1300, now) > 0.02  # the hazard is real
    hint = ObjectServer._pump_entry(SimpleNamespace(), entry, now)
    assert hint <= 0.02


@pytest.mark.loopback
def test_loopback_completion_is_prompt():
    """Completion-signal regression: the receiver must send DONE when
    the object lands, not leave the sender to synthesize completion
    from a 5 s ACK stall."""
    from repro.runtime.transfer import run_loopback_transfer

    result = run_loopback_transfer(nbytes=200_000,
                                   config=FobsConfig(ack_frequency=16))
    assert result.completed and result.checksum_ok
    assert result.duration < 2.0


@pytest.mark.loopback
def test_tuned_loopback_transfer_replays():
    """End-to-end on real sockets: a tuned transfer completes and its
    recorded decision stream replays exactly."""
    import os
    import tempfile

    from repro.runtime.transfer import run_loopback_transfer
    from repro.telemetry import EventBus, JsonlSink, read_events
    from repro.tuning import replay_decisions

    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "tel.jsonl")
        bus = EventBus(sinks=[JsonlSink(log, producer="test")])
        try:
            result = run_loopback_transfer(
                nbytes=1_500_000, config=FobsConfig(ack_frequency=16),
                tuning=TuningConfig(epoch_interval=0.02), telemetry=bus)
        finally:
            bus.close()
        assert result.completed and result.checksum_ok
        events = [dict(kind=e.kind, **e.fields) for e in read_events(log)
                  if e.src == "tuner"]
        decisions = replay_decisions(events)
        assert decisions  # at least one epoch elapsed and replayed
