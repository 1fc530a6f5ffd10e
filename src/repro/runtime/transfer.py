"""Loopback transfer: the file-transfer path with both ends in one process.

:func:`run_loopback_transfer` runs a receiver
(:class:`~repro.runtime.files.LoopbackReceiver`) on a thread and one
sender attempt of :func:`~repro.runtime.files.send_file` against it on
127.0.0.1, over a temporary directory: the paper's UDP data socket, UDP
acknowledgement socket and TCP control/completion connection, with the
object checksummed on both sides.

An optional ``drop_rate`` discards outgoing data datagrams at the
sender (deterministic RNG) to exercise the retransmission machinery on
an otherwise loss-free loopback path.  ``corrupt_rate`` flips one byte
in that fraction of datagrams instead (the checksum must catch them),
and ``blackhole_acks`` silences the receiver's acknowledgement and
completion signals entirely — the adversarial case that must end in a
clean stall abort rather than a hang.

Crash-resume support: ``kill`` (a
:class:`~repro.simnet.faults.KillSwitch`) makes one endpoint die
abruptly at a packet count; ``session`` (a
:class:`~repro.runtime.wire.SessionContext`) makes the transfer
resumable: the receiver journals its bitmap next to a ``.part`` file,
answers the offer with a RESUME bitmap, and rejects datagrams of any
other attempt epoch.  :func:`repro.runtime.supervisor.run_resumable_loopback`
drives the retry loop over these hooks.
"""

from __future__ import annotations

import os
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.config import FobsConfig
from repro.core.receiver import ReceiverStats
from repro.runtime import files, wire

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.journal import ReceiverJournal
    from repro.simnet.faults import KillSwitch
    from repro.tuning import TuningConfig


@dataclass
class LoopbackResult:
    """Outcome of one loopback transfer."""

    nbytes: int
    duration: float
    throughput_bps: float
    checksum_ok: bool
    packets_sent: int
    packets_retransmitted: int
    duplicates_received: int
    acks_sent: int
    wasted_fraction: float
    #: Did both sides finish the protocol (vs. a clean stall failure)?
    completed: bool = True
    failure_reason: Optional[str] = None
    stall_events: int = 0
    stall_recoveries: int = 0
    #: Datagrams rejected by CRC verification (data + acks).
    corrupt_dropped: int = 0
    #: Datagrams rejected for carrying a stale attempt epoch.
    stale_epoch_dropped: int = 0
    #: Packets pre-acknowledged via the resume bitmap (never re-sent).
    resumed_packets: int = 0
    #: Endpoint killed by crash injection ("sender"/"receiver"/None).
    crashed: Optional[str] = None


def loopback_object(nbytes: int, seed: int, data: Optional[bytes]) -> bytes:
    """The object to move: ``data``, or ``nbytes`` seeded random bytes."""
    if data is None:
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    if len(data) != nbytes:
        raise ValueError("len(data) must equal nbytes")
    return data


def loopback_attempt(
    data: bytes,
    config: FobsConfig,
    workdir: str,
    *,
    session: Optional[wire.SessionContext] = None,
    kill: Optional["KillSwitch"] = None,
    journal_path: Optional[str] = None,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    blackhole_acks: bool = False,
    seed: int = 0,
    timeout: float = 60.0,
    tuning: Optional["TuningConfig"] = None,
    telemetry=None,
) -> LoopbackResult:
    """One sender attempt against one receiver attempt in ``workdir``.

    The receiver reassembles into ``workdir/object.part`` (kept across
    calls: with a ``session`` it is the resume buffer, trusted as far as
    the journal at ``journal_path`` vouches) and publishes
    ``workdir/object`` on completion.
    """
    output = os.path.join(workdir, "object")
    target = kill.target if kill is not None else None
    start = time.monotonic()
    with files.LoopbackReceiver(
            output, timeout=timeout, journal_path=journal_path,
            config=config, kill=kill if target == "receiver" else None,
            blackhole_acks=blackhole_acks) as rx:
        sent = files._send_attempt(
            data, zlib.crc32(data), "127.0.0.1", rx.port, config, timeout,
            session, kill=kill if target == "sender" else None,
            telemetry=telemetry, drop_rate=drop_rate,
            corrupt_rate=corrupt_rate, fault_seed=seed, tuning=tuning)
    duration = max(time.monotonic() - start, 1e-9)
    received = rx.result
    crashed = sent.crashed or (
        "receiver" if target == "receiver" and kill.fired else None)
    completed = sent.completed and received.completed and crashed is None
    checksum_ok = False
    if completed:
        with open(output, "rb") as fh:
            checksum_ok = fh.read() == data
    if crashed == "receiver":
        failure_reason = received.failure_reason
    else:
        failure_reason = sent.failure_reason or received.failure_reason
    sender = sent.sender
    rstats = received.receiver_stats or ReceiverStats()
    return LoopbackResult(
        nbytes=len(data),
        duration=duration,
        throughput_bps=len(data) * 8.0 / duration,
        checksum_ok=checksum_ok,
        packets_sent=sender.stats.packets_sent,
        packets_retransmitted=sender.stats.retransmissions,
        duplicates_received=rstats.packets_duplicate,
        acks_sent=rstats.acks_built,
        wasted_fraction=sender.wasted_fraction,
        completed=completed,
        failure_reason=None if completed else failure_reason,
        stall_events=sender.stats.stall_events,
        stall_recoveries=sender.stats.stall_recoveries,
        corrupt_dropped=rstats.packets_corrupt + sender.stats.acks_corrupt,
        stale_epoch_dropped=(rstats.stale_epoch_data
                             + sender.stats.stale_epoch_acks),
        resumed_packets=sender.stats.resumed_packets,
        crashed=crashed,
    )


def run_loopback_transfer(
    nbytes: int = 1_000_000,
    config: Optional[FobsConfig] = None,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    blackhole_acks: bool = False,
    seed: int = 0,
    timeout: float = 60.0,
    data: Optional[bytes] = None,
    journal: Optional["ReceiverJournal"] = None,
    resume_bitmap: Optional[np.ndarray] = None,
    session: Optional[wire.SessionContext] = None,
    kill: Optional["KillSwitch"] = None,
    buffer: Optional[bytearray] = None,
    tuning: Optional["TuningConfig"] = None,
    telemetry=None,
) -> LoopbackResult:
    """Transfer a checksummed object over real sockets on localhost.

    Returns throughput and protocol counters; ``checksum_ok`` confirms
    byte-exact delivery.  ``drop_rate`` discards that fraction of data
    datagrams at the sender to exercise retransmission; ``corrupt_rate``
    flips a byte in that fraction instead (requires ``config.checksum``
    for detection); ``blackhole_acks`` silences the reverse path so the
    sender must stall-abort.  Protocol-level failures (stall abort,
    receiver liveness timeout) return a result with ``completed=False``
    and a ``failure_reason`` rather than raising.

    ``tuning`` attaches the sender-side tuner (pacing rate and batch
    size); ``telemetry`` receives the sender's events.  ``session`` and
    ``kill`` are the crash-resume hooks of the module docstring.  The
    transfer resumes from the receiver's own journal and ``.part`` file,
    so ``journal``, ``resume_bitmap`` and ``buffer`` are no longer
    accepted (a ValueError): use
    :func:`repro.runtime.supervisor.run_resumable_loopback` for the
    full retry loop.
    """
    if journal is not None or resume_bitmap is not None or buffer is not None:
        raise ValueError(
            "journal, resume_bitmap and buffer are not accepted: the "
            "loopback transfer resumes from its own journal and .part "
            "file (see run_resumable_loopback)")
    config = config if config is not None else FobsConfig(ack_frequency=32)
    data = loopback_object(nbytes, seed, data)
    with tempfile.TemporaryDirectory(prefix="fobs-loopback-") as workdir:
        return loopback_attempt(
            data, config, workdir, session=session, kill=kill,
            drop_rate=drop_rate, corrupt_rate=corrupt_rate,
            blackhole_acks=blackhole_acks, seed=seed, timeout=timeout,
            tuning=tuning, telemetry=telemetry)
