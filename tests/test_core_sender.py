"""Tests for the sans-IO FOBS sender state machine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitmap import PacketBitmap
from repro.core.config import FobsConfig
from repro.core.packets import AckPacket
from repro.core.scheduling import CircularScheduler
from repro.core.sender import FobsSender, SenderStats


def make_ack(sender, seqs, ack_id=0):
    bm = np.zeros(sender.npackets, dtype=np.bool_)
    bm[list(seqs)] = True
    return AckPacket(ack_id=ack_id, received_count=len(seqs), bitmap=bm)


class TestBatches:
    def test_batch_size_honoured(self):
        s = FobsSender(FobsConfig(batch_size=2), 10 * 1024)
        assert [p.seq for p in s.next_batch()] == [0, 1]
        assert [p.seq for p in s.next_batch()] == [2, 3]

    def test_first_pass_counts_first_transmissions(self):
        s = FobsSender(FobsConfig(batch_size=5), 5 * 1024)
        s.next_batch()
        assert s.stats.first_transmissions == 5
        assert s.stats.retransmissions == 0

    def test_wrap_counts_retransmissions(self):
        s = FobsSender(FobsConfig(batch_size=5), 5 * 1024)
        s.next_batch()
        batch = s.next_batch()
        assert [p.seq for p in batch] == [0, 1, 2, 3, 4][:len(batch)]
        assert s.stats.retransmissions == len(batch)
        assert all(p.transmission == 1 for p in batch)

    def test_empty_after_all_acked(self):
        s = FobsSender(FobsConfig(batch_size=2), 4 * 1024)
        s.on_ack(make_ack(s, range(4)), now=1.0)
        assert s.next_batch() == []
        assert s.all_acked

    def test_empty_after_completion(self):
        s = FobsSender(FobsConfig(), 4 * 1024)
        s.on_completion(now=1.0)
        assert s.next_batch() == []
        assert s.complete

    def test_last_packet_may_be_short(self):
        s = FobsSender(FobsConfig(packet_size=1000), 2500)
        assert s.npackets == 3
        assert s.payload_bytes(0) == 1000
        assert s.payload_bytes(2) == 500

    def test_batch_counter(self):
        s = FobsSender(FobsConfig(batch_size=2), 10 * 1024)
        s.next_batch()
        s.next_batch()
        assert s.stats.batches == 2


class TestAckProcessing:
    def test_acked_packets_not_resent(self):
        s = FobsSender(FobsConfig(batch_size=4), 4 * 1024)
        s.next_batch()
        s.on_ack(make_ack(s, [0, 2]), now=0.1)
        resent = [p.seq for p in s.next_batch()]
        # Greedy: the batch cycles over the unacked set, never touching
        # acknowledged packets.
        assert resent[:2] == [1, 3]
        assert set(resent) == {1, 3}

    def test_stale_ack_still_merges_bitmap(self):
        s = FobsSender(FobsConfig(), 4 * 1024)
        s.on_ack(make_ack(s, [0], ack_id=5), now=0.1)
        s.on_ack(make_ack(s, [0, 1], ack_id=3), now=0.2)  # stale id
        assert s.stats.stale_acks == 1
        assert bool(s.acked.array[1])  # info still merged

    def test_newly_confirmed_count_returned(self):
        s = FobsSender(FobsConfig(), 4 * 1024)
        assert s.on_ack(make_ack(s, [0, 1], ack_id=0), now=0.1) == 2
        assert s.on_ack(make_ack(s, [0, 1, 2], ack_id=1), now=0.2) == 1

    def test_progress_feeds_congestion_policy(self):
        cfg = FobsConfig(congestion_mode="backoff", congestion_threshold=0.1)
        s = FobsSender(cfg, 100 * 1024)
        # heavy implied loss: sent many, receiver gained little
        for i in range(20):
            for _ in range(20):
                s.next_batch()
            s.on_ack(make_ack(s, [i], ack_id=i), now=0.01 * (i + 1))
        assert s.congestion.batch_delay() > 0


class TestWaste:
    def test_waste_zero_when_no_retransmissions(self):
        s = FobsSender(FobsConfig(batch_size=4), 4 * 1024)
        s.next_batch()
        assert s.wasted_fraction == 0.0

    def test_waste_counts_duplicates(self):
        s = FobsSender(FobsConfig(batch_size=4), 4 * 1024)
        s.next_batch()
        s.next_batch()
        assert s.wasted_fraction == pytest.approx(1.0)

    def test_waste_validates_required(self):
        with pytest.raises(ValueError):
            SenderStats().wasted_fraction(0)


class TestCompletion:
    def test_completion_records_time_once(self):
        s = FobsSender(FobsConfig(), 1024)
        s.on_completion(now=5.0)
        s.on_completion(now=9.0)
        assert s.stats.completed_at == 5.0


class TestCircularSweep:
    """The fused sweep in ``next_batch`` against the reference
    ``next_seq``/``record_sent`` loop of a second scheduler."""

    @settings(max_examples=150, deadline=None)
    @given(
        npackets=st.integers(min_value=2, max_value=5000),
        ack_frequency=st.sampled_from([8, 48]),
        resume=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.lists(
            st.tuples(st.sampled_from([0.0, 0.05, 0.3, 0.6, 0.9]),
                      st.integers(0, 64)),
            min_size=1, max_size=40,
        ),
    )
    def test_matches_reference_scheduler(self, npackets, ack_frequency,
                                         resume, seed, steps):
        """Each step merges an ACK covering ``share`` of the missing
        packets (none at 0), then sends a batch of ``size`` (a stall
        probe at 0)."""
        rng = np.random.default_rng(seed)
        cfg = FobsConfig(ack_frequency=ack_frequency)
        sender = FobsSender(cfg, npackets * cfg.packet_size)
        ref_acked = PacketBitmap(npackets)
        ref = CircularScheduler(npackets)
        expected = SenderStats()
        received = np.zeros(npackets, dtype=np.bool_)

        def ack_more(share):
            missing = np.flatnonzero(~received)
            received[rng.choice(missing, int(share * missing.size),
                                replace=False)] = True
            return received.copy()

        if resume:
            bitmap = ack_more(rng.uniform(0.0, 0.9))
            expected.resumed_packets = sender.resume_from(bitmap)
            ref_acked.merge(bitmap)
        for ack_id, (share, size) in enumerate(steps):
            if share:
                bitmap = ack_more(share)
                sender.on_ack(AckPacket(ack_id=ack_id,
                                        received_count=int(bitmap.sum()),
                                        bitmap=bitmap), now=float(ack_id))
                ref_acked.merge(bitmap)
                expected.acks_processed += 1
            if size:
                batch = sender.next_batch(size=size)
            else:
                batch, size = sender.probe_batch(), ack_frequency
            want = []
            for _ in range(size):
                seq = ref.next_seq(ref_acked)
                if seq is None:
                    break
                want.append((seq, int(ref.send_count[seq])))
                ref.record_sent(seq)
            assert [(p.seq, p.transmission) for p in batch] == want
            if want:
                nfirst = sum(t == 0 for _, t in want)
                expected.batches += 1
                expected.packets_sent += len(want)
                expected.first_transmissions += nfirst
                expected.retransmissions += len(want) - nfirst
        circ = sender.scheduler
        assert circ.rounds == ref.rounds
        assert circ._ptr == ref._ptr
        assert circ._send_list == ref._send_list
        np.testing.assert_array_equal(circ.send_count, ref.send_count)
        assert sender.stats == expected

    @pytest.mark.parametrize("unreceive", ["clear", "demote"])
    def test_unreceived_seq_resent_after_compaction(self, unreceive):
        s = FobsSender(FobsConfig(batch_size=2), 100 * 1024)
        for _ in range(50):
            s.next_batch()
        s.on_ack(make_ack(s, range(80)), now=0.1)
        s.next_batch()
        # More than half the cached list was acked: it now holds only
        # the 20 missing seqs, so seq 10 must come back from a rebuild.
        assert s.scheduler.missing_list(s.acked) == list(range(80, 100))
        if unreceive == "clear":
            s.acked.clear(10)
        else:
            s.acked.demote([10])
        sent = [p.seq for _ in range(11) for p in s.next_batch()]
        assert 10 in sent
        assert sorted(set(sent)) == [10] + list(range(80, 100))
