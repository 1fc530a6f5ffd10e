"""Micro-benchmarks of the hot data structures.

Standard pytest-benchmark timing (many rounds) for the code the HPC
guide says to keep vectorized: the per-ACK bitmap merge, the circular
scan, the sender's per-ACK cost, event-loop throughput and reassembly
insertion.
"""

import numpy as np

from repro.core.bitmap import PacketBitmap
from repro.core.scheduling import CircularScheduler
from repro.simnet.engine import Simulator
from repro.tcp.reassembly import ReassemblyBuffer

#: the paper's 40 MB / 1 KB object
NPACKETS = 39063


def test_bitmap_merge_throughput(benchmark):
    """One full-bitmap ACK merge (the per-ACK cost at the sender)."""
    bm = PacketBitmap(NPACKETS)
    other = np.zeros(NPACKETS, dtype=np.bool_)
    other[::2] = True
    benchmark(bm.merge, other)


def test_bitmap_next_missing_scan(benchmark):
    """Circular scan with a half-full bitmap."""
    bm = PacketBitmap(NPACKETS)
    for seq in range(0, NPACKETS, 2):
        bm.mark(seq)
    benchmark(bm.next_missing, NPACKETS // 2)


def test_bitmap_pack_unpack(benchmark):
    """Wire encoding of the full ACK bitmap."""
    bm = PacketBitmap(NPACKETS)
    for seq in range(0, NPACKETS, 3):
        bm.mark(seq)
    benchmark(bm.to_bytes)


def test_circular_scheduler_step(benchmark):
    """One next_seq + record_sent cycle mid-transfer."""
    acked = PacketBitmap(NPACKETS)
    for seq in range(0, NPACKETS, 2):
        acked.mark(seq)
    sched = CircularScheduler(NPACKETS)

    def step():
        seq = sched.next_seq(acked)
        sched.record_sent(seq)

    benchmark(step)


def test_sender_ack_then_batch(benchmark):
    """One ACK confirming 16 new packets, then the next batch.

    The sender's whole per-ACK cost mid-transfer, half the object
    acked: the bitmap merge plus whatever the next circular sweep pays
    for the changed ACK state, missing-list compactions included.
    """
    from repro.core import FobsConfig
    from repro.core.packets import AckPacket
    from repro.core.sender import FobsSender

    sender = FobsSender(FobsConfig(), NPACKETS * 1024)
    received = np.zeros(NPACKETS, dtype=np.bool_)
    received[::2] = True
    sender.resume_from(received)
    sender.next_batch()
    order = np.random.default_rng(0).permutation(np.flatnonzero(~received))
    ack_ids = iter(range(NPACKETS))

    def setup():
        i = next(ack_ids)
        received[order[16 * i:16 * (i + 1)]] = True
        ack = AckPacket(ack_id=i, received_count=int(received.sum()),
                        bitmap=received.copy())
        return (ack,), {}

    def step(ack):
        sender.on_ack(ack, now=ack.ack_id * 1e-3)
        return sender.next_batch()

    batch = benchmark.pedantic(step, setup=setup, rounds=1000)
    assert batch and sender.stats.acks_processed == 1000


def test_engine_event_throughput(benchmark):
    """Schedule + dispatch cost per event (the simulator's heartbeat)."""

    def run_events():
        sim = Simulator()
        for i in range(1000):
            sim.schedule(i * 1e-6, _noop)
        sim.run()

    benchmark(run_events)


def _noop():
    return None


def test_reassembly_in_order_insert(benchmark):
    """Receiver-side cost of an in-order segment arrival."""
    buf = ReassemblyBuffer()
    state = {"seq": 0}

    def insert():
        buf.add(state["seq"], 1460)
        state["seq"] += 1460

    benchmark(insert)


def test_reassembly_out_of_order_insert(benchmark):
    """Receiver-side cost with a standing loss hole (SACK regime)."""
    buf = ReassemblyBuffer()
    buf.add(0, 1460)
    # leave a permanent hole at [1460, 2920); insert above it
    state = {"seq": 2920}

    def insert():
        buf.add(state["seq"], 1460)
        state["seq"] += 1460

    benchmark(insert)


def test_ack_wire_encode(benchmark):
    """Real-socket backend: full-bitmap ACK serialization."""
    from repro.core.packets import AckPacket
    from repro.runtime import wire

    bm = np.zeros(NPACKETS, dtype=np.bool_)
    bm[::2] = True
    ack = AckPacket(ack_id=1, received_count=NPACKETS // 2, bitmap=bm)
    benchmark(wire.encode_ack, ack)


def test_ack_wire_decode(benchmark):
    """Real-socket backend: full-bitmap ACK parsing."""
    from repro.core.packets import AckPacket
    from repro.runtime import wire

    bm = np.zeros(NPACKETS, dtype=np.bool_)
    bm[::3] = True
    raw = wire.encode_ack(AckPacket(ack_id=1, received_count=NPACKETS // 3 + 1,
                                    bitmap=bm))
    benchmark(wire.decode_ack, raw)


def test_data_wire_encode(benchmark):
    """Real-socket backend: one default-size (B=2) batch of 1 KB data
    packets, checksummed and session-stamped, encoded per packet the
    way both real-socket senders do."""
    from repro.core.packets import DataPacket
    from repro.runtime import wire

    session = wire.SessionContext(transfer_id=0x5EED, epoch=1)
    blob = bytes(range(256)) * 8
    batch = [DataPacket(seq=s, total=NPACKETS, payload_bytes=1024)
             for s in (100, 101)]

    def encode():
        return [wire.encode_data(pkt, blob[:1024], checksum=True,
                                 session=session) for pkt in batch]

    datagrams = benchmark(encode)
    assert [len(d) for d in datagrams] == [1024 + 12 + 12 + 4] * 2


def test_fobs_end_to_end_small_transfer(benchmark):
    """Whole-stack cost: one 1 MB FOBS transfer on the short haul.

    This is the number that bounds how fast the figure sweeps run.
    """
    from repro.core import FobsConfig, run_fobs_transfer
    from repro.simnet import topology

    def run():
        net = topology.short_haul(seed=0)
        return run_fobs_transfer(net, 1_000_000, FobsConfig(ack_frequency=64))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.completed
