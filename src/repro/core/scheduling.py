"""Packet-selection policies: which unacknowledged packet goes next.

The paper tried several algorithms and found the *circular buffer*
discipline "the best approach (by far)": never retransmit a packet for
the (n+1)-st time while any unacknowledged packet has been transmitted
at most n times.  Sweeping a wrap-around pointer that skips acked
packets implements exactly that invariant; the two alternatives here
are the losing strategies the ablation bench contrasts it with.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.core.bitmap import PacketBitmap


class Scheduler(Protocol):
    """Chooses the next sequence number to transmit."""

    def next_seq(self, acked: PacketBitmap) -> Optional[int]:
        """Next packet to send given current ACK state; None if done."""
        ...

    def record_sent(self, seq: int) -> None:
        """Inform the policy a packet was actually transmitted."""
        ...


class CircularScheduler:
    """The paper's circular-buffer discipline.

    The pointer sweeps 0..n-1 repeatedly, skipping acknowledged
    packets.  Within each full sweep every surviving packet is sent
    exactly once, which yields the fairness invariant:
    ``max(send_count over unacked) - min(send_count over unacked) <= 1``.
    """

    def __init__(self, npackets: int):
        if npackets <= 0:
            raise ValueError("npackets must be positive")
        self.npackets = npackets
        self._ptr = 0
        self.rounds = 0
        # Transmission counts: the plain list is the source of truth on
        # the scalar paths (numpy scalar indexing costs ~10x a list
        # index); the array view is rebuilt on demand for vectorized
        # batch selection and external readers.
        self._send_list: list[int] = [0] * npackets
        self._send_np = np.zeros(npackets, dtype=np.int32)
        self._send_np_dirty = False
        # Sorted missing-seq cache for batch selection.  ACKs only add
        # packets, so the list stays a superset of the missing set
        # between rebuilds: sweeps skip the entries acked since, and
        # an ACK costs nothing here (see missing_list).
        self._resets = -1
        self._missing_np: Optional[np.ndarray] = None
        self._missing_list: list[int] = []
        # Resume point for FobsSender's fused sweep: (pointer, index)
        # pair so a batch following another against the same list
        # skips the bisect.
        self._pos_ptr = -1
        self._pos = 0

    @property
    def send_count(self) -> np.ndarray:
        """Per-packet transmission counts as an array (read-only view)."""
        if self._send_np_dirty:
            self._send_np = np.array(self._send_list, dtype=np.int32)
            self._send_np_dirty = False
        return self._send_np

    def next_seq(self, acked: PacketBitmap) -> Optional[int]:
        seq = acked.next_missing(self._ptr)
        if seq is None:
            return None
        if seq < self._ptr:
            self.rounds += 1
        return seq

    def record_sent(self, seq: int) -> None:
        self._send_list[seq] += 1
        self._send_np_dirty = True
        self._ptr = seq + 1
        if self._ptr >= self.npackets:
            self._ptr = 0
            self.rounds += 1

    def missing_list(self, acked: PacketBitmap, exact: bool = False) -> list[int]:
        """The cached ascending list of seqs that may still be missing.

        A superset of ``acked``'s missing set whose extra entries are
        packets acked since the last rebuild; sweeps skip them through
        :attr:`PacketBitmap.flags`.  One ``flatnonzero`` rebuild
        compacts it once those stale entries are more than half of it,
        when the bitmap un-received packets (``resets``), or when
        ``exact`` is asked for.  A compaction at least halves the list,
        so the per-ACK Python cost is amortized O(packets newly acked),
        not O(npackets).
        """
        ml = self._missing_list
        missing = acked.missing
        if (acked.resets != self._resets or 2 * missing < len(ml)
                or (exact and missing != len(ml))):
            self._missing_np = acked.missing_indices()
            self._missing_list = ml = self._missing_np.tolist()
            self._resets = acked.resets
            self._pos_ptr = -1
        return ml

    def take_batch(
        self, acked: PacketBitmap, size: int
    ) -> tuple[list[int], list[int]]:
        """Select *and record* up to ``size`` packets in one pass.

        Vectorized equivalent of ``size`` successive ``next_seq`` /
        ``record_sent`` calls: the ACK state cannot change mid-batch, so
        the whole sweep is a rotation of the missing set tiled to the
        batch length.  Returns ``(seqs, transmission_counts)`` where the
        counts are pre-increment, exactly as the per-call path reports
        them.  ``rounds``, ``send_count`` and the pointer end up
        bit-identical to the per-call path.  :class:`FobsSender` sweeps
        batches of up to 32 itself, fused with packet construction.
        """
        if size <= 0:
            return [], []
        length = len(self.missing_list(acked, exact=True))
        if length == 0:
            return [], []
        ptr = self._ptr
        last = self.npackets - 1
        missing = self._missing_np
        sc = self.send_count
        k = int(np.searchsorted(missing, ptr))
        idx = np.arange(size, dtype=np.int64)
        seqs_arr = missing[(k + idx) % length]
        trans_arr = sc[seqs_arr].astype(np.int64) + idx // length
        # next_seq wraps (seq < ptr) once at the head if the pointer is
        # past every missing seq, then whenever a pick does not advance
        # past its predecessor -- except when the predecessor was the
        # final seq, because record_sent already wrapped the pointer to
        # zero (and charged that round) itself.
        rounds = int(seqs_arr[0] < ptr)
        rounds += int(np.count_nonzero(seqs_arr == last))
        prev, cur = seqs_arr[:-1], seqs_arr[1:]
        rounds += int(np.count_nonzero((cur <= prev) & (prev != last)))
        self.rounds += rounds
        seqs = seqs_arr.tolist()
        sl = self._send_list
        full, rem = divmod(size, length)
        if full:
            sc[missing] += full
            for s in self._missing_list:
                sl[s] += full
        if rem:
            sc[seqs_arr[:rem]] += 1
            for s in seqs[:rem]:
                sl[s] += 1
        last_seq = seqs[-1]
        self._ptr = 0 if last_seq == last else last_seq + 1
        return seqs, trans_arr.tolist()


class SequentialRestartScheduler:
    """Naive policy: windowed go-back-N restart from the lowest unacked.

    Each cycle sweeps sequentially over at most ``window`` unacked
    packets starting from the lowest one, then restarts from the (new)
    lowest unacked.  Because ACKs lag by a round trip, every cycle
    re-sends packets that are already in flight — before the ACK for
    packet k can possibly return, k has been retransmitted several
    times.  This is the head-of-line style the paper's experimentation
    rejected in favour of the circular discipline; the ablation bench
    shows why (enormous waste, goodput capped near window/RTT).
    """

    def __init__(self, npackets: int, window: int = 64):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.npackets = npackets
        self.window = window
        self.send_count = np.zeros(npackets, dtype=np.int32)
        self._pos = 0
        self._in_cycle = 0

    def next_seq(self, acked: PacketBitmap) -> Optional[int]:
        if acked.is_complete:
            return None
        if self._in_cycle >= self.window:
            self._pos = 0
            self._in_cycle = 0
        seq = acked.next_missing(self._pos)
        if seq is None:
            return None
        if seq < self._pos:
            # wrapped: restart the cycle from the lowest unacked
            self._in_cycle = 0
            seq = acked.next_missing(0)
        return seq

    def record_sent(self, seq: int) -> None:
        self.send_count[seq] += 1
        self._pos = seq + 1
        self._in_cycle += 1


class RandomScheduler:
    """Uniformly random choice among unacknowledged packets.

    Unbiased but ignorant of transmission history: some packets are
    resent long before others are sent at all.  O(missing) per pick —
    acceptable for an ablation, not for production use.
    """

    def __init__(self, npackets: int, rng: Optional[np.random.Generator] = None):
        self.npackets = npackets
        self.send_count = np.zeros(npackets, dtype=np.int32)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def next_seq(self, acked: PacketBitmap) -> Optional[int]:
        missing = acked.missing_indices()
        if missing.shape[0] == 0:
            return None
        return int(missing[self._rng.integers(missing.shape[0])])

    def record_sent(self, seq: int) -> None:
        self.send_count[seq] += 1


def make_scheduler(
    name: str, npackets: int, rng: Optional[np.random.Generator] = None
) -> Scheduler:
    """Factory keyed by :attr:`FobsConfig.scheduler`."""
    if name == "circular":
        return CircularScheduler(npackets)
    if name == "sequential_restart":
        return SequentialRestartScheduler(npackets)
    if name == "random":
        return RandomScheduler(npackets, rng)
    raise ValueError(f"unknown scheduler {name!r}")
