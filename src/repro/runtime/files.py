"""Point-to-point file transfer over the real-socket FOBS backend.

A minimal session protocol on top of the FOBS data plane, so two
*separate processes* (or machines) can move a file:

1. the receiver listens on a TCP control port;
2. the sender connects and sends a :data:`FileOffer` (file size,
   packet size, its UDP acknowledgement port);
3. the receiver binds a UDP data socket and replies with a
   :data:`FileAccept` carrying the data port;
4. FOBS runs — UDP data one way, UDP bitmap ACKs the other;
5. the receiver sends the completion signal back on the still-open
   TCP control connection and both sides verify a CRC32 of the object.

Crash-resumable sessions (PROTOCOL.md §8) extend step 2/3: a sender
offering ``FLAG_RESUME`` sends the v2 offer — the v1 fields plus a
64-bit transfer id and a 32-bit attempt epoch — and the receiver
answers with a RESUME message instead of the plain accept, carrying
its journal-reconstructed bitmap.  The receiver writes arriving
payloads through to a ``.part`` file and journals every newly
received packet (:class:`~repro.core.journal.ReceiverJournal`), so a
crash on either side loses only unflushed progress; the sender merges
the RESUME bitmap and retransmits only the gap.  Every data/ACK
datagram of a resumable session carries the
:class:`~repro.runtime.wire.SessionContext` extension, so datagrams
from a dead attempt are rejected on arrival.

Used by the ``fobs-xfer`` CLI (:mod:`repro.runtime.cli`).
"""

from __future__ import annotations

import errno
import os
import socket
import struct
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.tuning import TuningConfig

import numpy as np

from repro.core.config import FobsConfig
from repro.core.journal import ReceiverJournal
from repro.core.manifest import (
    ChunkManifest,
    ManifestCorrupt,
    VerifyStats,
    corrupt_ranges,
)
from repro.core.receiver import FobsReceiver, ReceiverStats
from repro.core.sender import FobsSender
from repro.runtime import wire
from repro.runtime.supervisor import (
    RetryPolicy,
    TransferSupervisor,
    kill_for_attempt,
)
from repro.telemetry import (
    EV_CORRUPTION,
    EV_REPAIR,
    EV_STORAGE_FAULT,
    EV_TRANSFER_END,
    EV_TRANSFER_START,
    EV_VERIFY,
    NULL_CHANNEL,
    EventBus,
    TelemetryChannel,
)

OFFER_MAGIC = 0xF0B50FFE
OFFER2_MAGIC = 0xF0B50FF2
ACCEPT_MAGIC = 0xF0B5ACC0
# magic, filesize, packet_size, ack_port, flags, crc32
_OFFER = struct.Struct("!IQIIII")
# v2 appends: transfer_id (u64), attempt epoch (u32)
_OFFER2 = struct.Struct("!IQIIIIQI")
_ACCEPT = struct.Struct("!III")    # magic, data_port, reserved
_MAGIC = struct.Struct("!I")
#: Offer flag bit: per-packet CRC32 checksumming on the data plane.
#: The receiver adopts whatever the sender offers — the negotiated
#: fallback for the checksum field in the wire formats.
FLAG_CHECKSUM = 1
#: Offer flag bit (v2 offers only): resumable session.  The receiver
#: journals progress and replies with RESUME instead of ACCEPT.
FLAG_RESUME = 2
#: Offer flag bit (v2 offers only, requires FLAG_RESUME): a VERIFY
#: frame carrying the per-chunk digest manifest follows the offer on
#: the control channel (PROTOCOL.md §10).  The receiver audits its
#: journal-claimed chunks against the manifest before building the
#: RESUME bitmap, and audits the whole object before declaring
#: completion; corrupt chunks are demoted and re-fetched.
FLAG_VERIFY = 4


@dataclass
class FileTransferResult:
    """Outcome of one file transfer (either side)."""

    path: str
    nbytes: int
    duration: float
    throughput_bps: float
    crc_ok: bool
    packets_sent: int = 0
    packets_retransmitted: int = 0
    completed: bool = True
    failure_reason: Optional[str] = None
    attempts: int = 1
    #: Packets recovered from the journal instead of retransmitted.
    resumed_packets: int = 0
    stale_epoch_dropped: int = 0
    #: Corruption-repair counters (receiver side; zero for senders).
    ranges_demoted: int = 0
    packets_demoted: int = 0
    bytes_refetched: int = 0
    verify_seconds: float = 0.0
    storage_faults: int = 0
    #: The last attempt's receiver-core counters (receiver side only).
    receiver_stats: Optional[ReceiverStats] = None


def recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    """Read exactly ``nbytes`` from a (blocking) control connection."""
    chunks = []
    remaining = nbytes
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("control connection closed early")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def derive_transfer_id(filesize: int, crc: int) -> int:
    """Deterministic transfer id binding a resumable session to content.

    Content-addressed — size in the low word, CRC32 in the high — so a
    re-run of the same file resumes its journal, while a *changed* file
    yields a new id and the receiver's stale journal is discarded by
    the header check instead of corrupting the new object.
    """
    return ((crc & 0xFFFFFFFF) << 32) | (filesize & 0xFFFFFFFF)


# ----------------------------------------------------------------------
# Sender
# ----------------------------------------------------------------------

@dataclass
class _SendOutcome:
    """One sender attempt, in the supervisor's duck-typed vocabulary."""

    completed: bool
    duration: float = 0.0
    failure_reason: Optional[str] = None
    crashed: Optional[str] = None
    packets_sent: int = 0
    retransmissions: int = 0
    resumed_packets: int = 0
    stale_epoch_dropped: int = 0
    #: The attempt's sender core, for callers that report its counters.
    sender: Optional[FobsSender] = None


def _send_attempt(
    data: bytes,
    crc: int,
    host: str,
    port: int,
    config: FobsConfig,
    timeout: float,
    session: Optional[wire.SessionContext],
    kill=None,
    telemetry: Optional[EventBus] = None,
    manifest: Optional[ChunkManifest] = None,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    fault_seed: int = 0,
    tuning: Optional["TuningConfig"] = None,
) -> _SendOutcome:
    """Run one connect→offer→blast attempt; never raises on failure.

    Batches are paced on ``sender.pacing_rate_bps`` when it is set;
    ``tuning`` attaches a tuner that drives that rate and the batch size.
    """
    deadline = time.monotonic() + timeout
    drop_rng = np.random.default_rng(fault_seed + 1)
    corrupt_rng = np.random.default_rng(fault_seed + 2)
    resumable = session is not None
    tid = session.transfer_id if resumable else 0
    epoch = session.epoch if resumable else 0
    if telemetry is not None and telemetry.enabled:
        channel = telemetry.channel(transfer_id=tid, epoch=epoch,
                                    src="runtime")
        sender_tel = telemetry.channel(transfer_id=tid, epoch=epoch,
                                       src="sender")
    else:
        channel = sender_tel = NULL_CHANNEL
    ack_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    ack_sock.bind(("0.0.0.0", 0))
    ack_sock.setblocking(False)
    data_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sender = FobsSender(config, len(data), rng=np.random.default_rng(0),
                        epoch=epoch, telemetry=sender_tel)
    if channel.enabled:
        channel.emit(EV_TRANSFER_START, nbytes=len(data),
                     npackets=sender.npackets,
                     packet_size=config.packet_size,
                     ack_frequency=config.ack_frequency, backend="runtime",
                     role="sender")
    tuner = None
    if tuning is not None:
        tuner = _sender_tuner(sender, config, tuning, telemetry, tid, epoch)
    start = time.monotonic()
    try:
        with socket.create_connection((host, port), timeout=timeout) as ctrl:
            flags = FLAG_CHECKSUM if config.checksum else 0
            if resumable:
                flags |= FLAG_RESUME
                if manifest is not None:
                    flags |= FLAG_VERIFY
                ctrl.sendall(_OFFER2.pack(
                    OFFER2_MAGIC, len(data), config.packet_size,
                    ack_sock.getsockname()[1], flags, crc,
                    session.transfer_id, session.epoch))
                if manifest is not None:
                    # VERIFY rides between OFFER and the RESUME reply,
                    # so the receiver holds the digests before it
                    # decides which journal-claimed packets to trust.
                    ctrl.sendall(wire.encode_verify(manifest.encode()))
                resume = wire.decode_resume(recv_exact(
                    ctrl, wire.resume_wire_bytes(config.npackets(len(data)))))
                if resume.transfer_id != session.transfer_id:
                    raise ValueError("RESUME for a different transfer id")
                if resume.epoch != session.epoch:
                    raise ValueError("RESUME for a different attempt epoch")
                data_port = resume.data_port
                sender.resume_from(resume.bitmap)
            else:
                ctrl.sendall(_OFFER.pack(
                    OFFER_MAGIC, len(data), config.packet_size,
                    ack_sock.getsockname()[1], flags, crc))
                magic, data_port, _ = _ACCEPT.unpack(
                    recv_exact(ctrl, _ACCEPT.size))
                if magic != ACCEPT_MAGIC:
                    raise ValueError("bad accept message from receiver")
            data_addr = (host, data_port)

            ctrl.setblocking(False)
            start = time.monotonic()
            completion_seen = False
            # Pacing clock: earliest time the next batch may go out.
            next_send = 0.0
            while not sender.complete:
                now = time.monotonic()
                if now > deadline:
                    return _outcome(sender, start, "file send timed out",
                                    telemetry=channel)
                stall = sender.poll_stall(now)
                if stall == "abort":
                    return _outcome(sender, start, sender.failure_reason,
                                    telemetry=channel)
                rate = sender.pacing_rate_bps
                paced = rate is not None and now < next_send
                if paced:
                    # Ahead of schedule.  Sleep in short slices, never
                    # the full deficit, so a tuner rate raise applied
                    # mid-wait takes effect within ~20 ms.
                    time.sleep(min(next_send - now, 0.02))
                    batch = []
                elif stall == "probe":
                    batch = sender.probe_batch()
                elif stall == "wait":
                    batch = []
                else:
                    batch = sender.next_batch()
                if batch and tuner is not None:
                    tuner.maybe_probe(batch[0].seq, now)
                if kill is not None and kill.should_fire(
                        sender.stats.packets_sent):
                    # Crash injection: the sender process dies silently
                    # mid-blast; closing the sockets (finally below) is
                    # exactly what the OS does to a SIGKILLed process.
                    kill.fire(time.monotonic())
                    return _outcome(
                        sender, start,
                        f"sender killed by crash injection after "
                        f"{sender.stats.packets_sent} data packets",
                        crashed="sender", telemetry=channel)
                sent_bytes = 0
                for pkt in batch:
                    off = pkt.seq * config.packet_size
                    payload = data[off:off + pkt.payload_bytes]
                    if drop_rate and drop_rng.random() < drop_rate:
                        continue  # simulated wide-area loss
                    datagram = wire.encode_data(pkt, payload,
                                                checksum=config.checksum,
                                                session=session)
                    if (corrupt_rate
                            and corrupt_rng.random() < corrupt_rate):
                        # Flip one byte in flight; the receiver's CRC
                        # rejects it and the scheduler re-sends later.
                        pos = int(corrupt_rng.integers(len(datagram)))
                        damaged = bytearray(datagram)
                        damaged[pos] ^= 0xFF
                        datagram = bytes(damaged)
                    data_sock.sendto(datagram, data_addr)
                    sent_bytes += len(datagram)
                if rate is not None and sent_bytes:
                    next_send = max(next_send, now) + sent_bytes * 8.0 / rate
                try:
                    ack = wire.decode_ack(ack_sock.recv(1 << 20),
                                          checksum=config.checksum,
                                          session=session)
                    sender.on_ack(ack, time.monotonic())
                except BlockingIOError:
                    pass
                except wire.ChecksumError:
                    sender.on_corrupt_ack()
                except (wire.StaleEpochError, wire.SessionMismatchError):
                    sender.on_stale_ack()
                if tuner is not None:
                    tuner.on_ack(sender, time.monotonic())
                try:
                    msg = ctrl.recv(64)
                    if msg:
                        wire.decode_completion(msg)
                        completion_seen = True
                        sender.on_completion(time.monotonic())
                    elif resumable:
                        # EOF before the completion frame: the receiver
                        # ended its attempt without blessing delivery —
                        # its audit demoted corrupt chunks, or it hit a
                        # storage fault.  Fail this attempt so the
                        # retry's RESUME learns which packets to
                        # re-send.
                        return _outcome(
                            sender, start,
                            "control connection closed before completion"
                            " (receiver did not bless delivery)",
                            telemetry=channel)
                except BlockingIOError:
                    pass
                except OSError:
                    return _outcome(sender, start,
                                    "control connection lost mid-transfer",
                                    telemetry=channel)
                if not batch and not paced and not sender.complete:
                    time.sleep(0.001)
            if (resumable and not completion_seen
                    and sender.stats.completion_timeouts):
                # Every packet was acknowledged but the receiver never
                # blessed the delivery.  Without verification that used
                # to be good enough ("the data demonstrably arrived");
                # with end-to-end audits it is not — the bytes may be
                # corrupt on the receiver's disk, so treat the missing
                # blessing as a retryable failure.
                return _outcome(
                    sender, start,
                    "all packets acknowledged but the completion signal"
                    " never arrived; delivery unconfirmed",
                    telemetry=channel)
            return _outcome(sender, start, None, telemetry=channel)
    except (OSError, ValueError, wire.ChecksumError) as exc:
        return _outcome(sender, start, f"{type(exc).__name__}: {exc}",
                        telemetry=channel)
    finally:
        ack_sock.close()
        data_sock.close()


def _outcome(
    sender: FobsSender,
    start: float,
    failure_reason: Optional[str],
    crashed: Optional[str] = None,
    telemetry: TelemetryChannel = NULL_CHANNEL,
) -> _SendOutcome:
    outcome = _SendOutcome(
        completed=failure_reason is None,
        duration=max(time.monotonic() - start, 1e-9),
        failure_reason=failure_reason,
        crashed=crashed,
        packets_sent=sender.stats.packets_sent,
        retransmissions=sender.stats.retransmissions,
        resumed_packets=sender.stats.resumed_packets,
        stale_epoch_dropped=sender.stats.stale_epoch_acks,
        sender=sender,
    )
    if telemetry.enabled:
        telemetry.emit(
            EV_TRANSFER_END, completed=outcome.completed,
            failed=not outcome.completed, duration=outcome.duration,
            throughput_bps=(sender.total_bytes * 8.0 / outcome.duration
                            if outcome.completed else 0.0),
            wasted_fraction=sender.stats.wasted_fraction(sender.npackets),
            packets_sent=outcome.packets_sent,
            retransmissions=outcome.retransmissions,
            resumed_packets=outcome.resumed_packets,
            failure_reason=failure_reason or "")
    return outcome


def _sender_tuner(sender: FobsSender, config: FobsConfig,
                  tuning: "TuningConfig", telemetry: Optional[EventBus],
                  tid: int, epoch: int):
    """Sender-side tuner: drives the pacing rate and the batch size.

    The ACK frequency F belongs to the receiving end, which runs its
    own tuner (:func:`_receive_attempt`).
    """
    from repro.core.rate import FixedBatchPolicy
    from repro.tuning import TransferTuner

    channel = NULL_CHANNEL
    if telemetry is not None and telemetry.enabled:
        channel = telemetry.channel(transfer_id=tid, epoch=epoch,
                                    src="tuner")
    policy = sender.batch_policy
    set_batch = None
    if isinstance(policy, FixedBatchPolicy):
        def set_batch(b: int, p=policy) -> None:
            p.batch_size = b
    return TransferTuner(tuning, set_rate=sender.set_pacing_rate,
                         set_batch_size=set_batch, telemetry=channel,
                         rate_bps=sender.pacing_rate_bps,
                         ack_frequency=config.ack_frequency,
                         batch_size=config.batch_size)


def send_file(
    path: str,
    host: str,
    port: int,
    config: Optional[FobsConfig] = None,
    timeout: float = 120.0,
    resume: bool = False,
    max_attempts: int = 1,
    transfer_id: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    kill_plan=None,
    telemetry: Optional[EventBus] = None,
    verify: bool = True,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
) -> FileTransferResult:
    """Send ``path`` to a :func:`receive_file` peer at ``host:port``.

    With ``resume`` (or ``max_attempts > 1``) the session is resumable:
    each attempt offers the v2 handshake, merges the receiver's RESUME
    bitmap, and frames every datagram with the session extension.  The
    supervisor retries failed attempts with exponential backoff up to
    ``max_attempts``; an exhausted budget *returns* a result with
    ``completed=False`` (it does not raise), so callers can report the
    failure.  The legacy single-shot path (default) is byte-identical
    on the wire to the original protocol and raises on timeout.

    ``verify`` (resumable sessions only) sends the per-chunk digest
    manifest as a VERIFY frame so the receiver can audit its disk and
    demote corrupt chunks for re-fetch instead of delivering them.

    ``drop_rate`` discards that fraction of outgoing data datagrams
    (deterministic RNG) and ``corrupt_rate`` flips one byte in that
    fraction instead: sender-side network chaos, which ``repro.chaos``
    composes with host-side storage faults and
    :func:`repro.runtime.transfer.run_loopback_transfer` exposes for
    in-process runs.
    """
    config = config if config is not None else FobsConfig(ack_frequency=32)
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise ValueError(f"{path} is empty")
    crc = zlib.crc32(data)
    resumable = resume or max_attempts > 1

    if not resumable:
        outcome = _send_attempt(data, crc, host, port, config, timeout,
                                session=None, telemetry=telemetry,
                                drop_rate=drop_rate,
                                corrupt_rate=corrupt_rate)
        if not outcome.completed:
            raise TimeoutError(f"file send failed: {outcome.failure_reason}")
        return FileTransferResult(
            path=path,
            nbytes=len(data),
            duration=outcome.duration,
            throughput_bps=len(data) * 8.0 / outcome.duration,
            crc_ok=True,  # the receiver verifies; completion implies success
            packets_sent=outcome.packets_sent,
            packets_retransmitted=outcome.retransmissions,
        )

    tid = transfer_id if transfer_id is not None else derive_transfer_id(
        len(data), crc)
    if policy is None:
        policy = RetryPolicy(max_attempts=max(max_attempts, 1),
                             backoff_base=0.2, seed=tid & 0xFFFF)
    manifest = (ChunkManifest.from_data(data, config.packet_size)
                if verify else None)

    def attempt_fn(attempt: int, epoch: int) -> _SendOutcome:
        return _send_attempt(data, crc, host, port, config, timeout,
                             session=wire.SessionContext(tid, epoch),
                             kill=kill_for_attempt(kill_plan, attempt),
                             telemetry=telemetry, manifest=manifest,
                             drop_rate=drop_rate, corrupt_rate=corrupt_rate,
                             fault_seed=tid + epoch)

    supervised = TransferSupervisor(policy=policy).run(
        attempt_fn, npackets=config.npackets(len(data)))
    final: _SendOutcome = supervised.final
    return FileTransferResult(
        path=path,
        nbytes=len(data),
        duration=final.duration,
        throughput_bps=len(data) * 8.0 / final.duration,
        crc_ok=supervised.completed,
        packets_sent=supervised.total_packets_sent,
        packets_retransmitted=sum(
            r.retransmissions for r in supervised.attempt_records),
        completed=supervised.completed,
        failure_reason=supervised.failure_reason,
        attempts=supervised.attempts,
        resumed_packets=supervised.packets_salvaged,
        stale_epoch_dropped=supervised.stale_epoch_dropped,
    )


# ----------------------------------------------------------------------
# Receiver
# ----------------------------------------------------------------------

@dataclass
class Offer:
    """A decoded v1 or v2 offer (push direction: the peer sends)."""

    filesize: int
    packet_size: int
    ack_port: int
    flags: int
    crc: int
    transfer_id: int = 0
    epoch: int = 0

    @property
    def resumable(self) -> bool:
        return bool(self.flags & FLAG_RESUME)

    @property
    def verify(self) -> bool:
        """A VERIFY frame (digest manifest) follows this offer."""
        return self.resumable and bool(self.flags & FLAG_VERIFY)


#: Wire sizes of the two offer formats (for non-blocking framed reads).
OFFER_V1_BYTES = _OFFER.size
OFFER_V2_BYTES = _OFFER2.size


def read_verify_manifest(
    ctrl: socket.socket, offer: Offer
) -> Optional[ChunkManifest]:
    """Read + decode the VERIFY frame announced by ``offer.verify``.

    The frame bytes are always consumed (the control stream must stay
    in sync); a manifest that fails its CRC or does not describe the
    offered object returns None — the receiver falls back to the
    whole-object CRC32, it never trusts a damaged digest list.
    """
    header = recv_exact(ctrl, wire.VERIFY_HDR_BYTES)
    body = recv_exact(ctrl, wire.verify_body_bytes(header))
    try:
        manifest = ChunkManifest.decode(body)
    except ManifestCorrupt:
        return None
    if (manifest.total_bytes != offer.filesize
            or manifest.packet_size != offer.packet_size):
        return None
    return manifest


def decode_offer(data: bytes) -> Offer:
    """Parse a complete v1 or v2 offer from bytes."""
    (magic,) = _MAGIC.unpack_from(data)
    if magic == OFFER_MAGIC:
        if len(data) < _OFFER.size:
            raise ValueError("v1 offer truncated")
        _, filesize, packet_size, ack_port, flags, crc = _OFFER.unpack_from(
            data)
        return Offer(filesize, packet_size, ack_port, flags, crc)
    if magic == OFFER2_MAGIC:
        if len(data) < _OFFER2.size:
            raise ValueError("v2 offer truncated")
        (_, filesize, packet_size, ack_port, flags, crc,
         tid, epoch) = _OFFER2.unpack_from(data)
        return Offer(filesize, packet_size, ack_port, flags, crc, tid, epoch)
    raise ValueError(f"bad offer magic {magic:#x}")


def encode_offer(offer: Offer) -> bytes:
    """Serialize an offer (v2 iff it carries the resume flag)."""
    if offer.resumable:
        return _OFFER2.pack(OFFER2_MAGIC, offer.filesize, offer.packet_size,
                            offer.ack_port, offer.flags, offer.crc,
                            offer.transfer_id, offer.epoch)
    return _OFFER.pack(OFFER_MAGIC, offer.filesize, offer.packet_size,
                       offer.ack_port, offer.flags, offer.crc)


def read_offer(ctrl: socket.socket) -> Offer:
    """Read a v1 or v2 offer, dispatching on the leading magic."""
    (magic,) = _MAGIC.unpack(recv_exact(ctrl, _MAGIC.size))
    if magic == OFFER_MAGIC:
        rest = recv_exact(ctrl, _OFFER.size - _MAGIC.size)
        return decode_offer(_MAGIC.pack(magic) + rest)
    if magic == OFFER2_MAGIC:
        rest = recv_exact(ctrl, _OFFER2.size - _MAGIC.size)
        return decode_offer(_MAGIC.pack(magic) + rest)
    raise ValueError(f"bad offer magic {magic:#x}")


def _receive_attempt(
    ctrl: socket.socket,
    peer: tuple[str, int],
    offer: Offer,
    config: FobsConfig,
    part_fh,
    journal: Optional[ReceiverJournal],
    resume_bitmap: Optional[np.ndarray],
    bind: str,
    deadline: float,
    telemetry: Optional[EventBus] = None,
    tuning: Optional["TuningConfig"] = None,
    stats_interval: float = 0.0,
    kill=None,
    blackhole_acks: bool = False,
) -> tuple[bool, Optional[str], FobsReceiver]:
    """Serve one accepted control connection; returns (ok, reason, rx).

    ``kill`` (a receiver-target :class:`~repro.simnet.faults.KillSwitch`)
    simulates a process death after that many data packets: the
    journal's unflushed run is lost and the attempt ends silently.
    ``blackhole_acks`` sends no ACK at all.
    """
    session = (wire.SessionContext(offer.transfer_id, offer.epoch)
               if offer.resumable else None)
    if telemetry is not None and telemetry.enabled:
        receiver_tel = telemetry.channel(
            transfer_id=offer.transfer_id, epoch=offer.epoch, src="receiver")
    else:
        receiver_tel = NULL_CHANNEL
    receiver = FobsReceiver(config, offer.filesize,
                            resume_bitmap=resume_bitmap, journal=journal,
                            epoch=offer.epoch, telemetry=receiver_tel)
    tuner = None
    if tuning is not None:
        # Receiver-side tuner: the only knob this end owns is the ACK
        # frequency F.  The controller's rate tracks measured delivery
        # goodput, which drives the F time-cap (ACK spacing stays under
        # feedback_interval seconds however slow the path gets).
        from repro.tuning import TransferTuner

        tuner_tel = NULL_CHANNEL
        if telemetry is not None and telemetry.enabled:
            tuner_tel = telemetry.channel(
                transfer_id=offer.transfer_id, epoch=offer.epoch,
                src="tuner")

        def _set_f(f: int, r=receiver) -> None:
            r.ack_frequency = f

        tuner = TransferTuner(tuning, set_rate=lambda r: None,
                              set_ack_frequency=_set_f,
                              telemetry=tuner_tel,
                              ack_frequency=config.ack_frequency)
    data_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    data_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
    data_sock.bind((bind, 0))
    data_sock.settimeout(0.05)
    ack_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        if offer.resumable:
            ctrl.sendall(wire.encode_resume(
                offer.transfer_id, offer.epoch,
                data_sock.getsockname()[1], receiver.bitmap.snapshot()))
        else:
            ctrl.sendall(_ACCEPT.pack(ACCEPT_MAGIC,
                                      data_sock.getsockname()[1], 0))
        start = time.monotonic()
        next_report = start + stats_interval if stats_interval > 0 else None
        ndata = 0  # data datagrams decoded, for crash injection
        while not receiver.complete:
            now = time.monotonic()
            if tuner is not None:
                s = receiver.stats
                tuner.poll(now, acked=s.packets_new,
                           sent=s.packets_new + s.packets_duplicate,
                           retrans=s.packets_duplicate)
            if next_report is not None and now >= next_report:
                next_report = now + stats_interval
                line = (f"fetch {offer.transfer_id:#018x}: "
                        f"{int(receiver.bitmap.count)}/{receiver.npackets} "
                        f"pkts t={now - start:.1f}s")
                if tuner is not None:
                    rate = tuner.rate_bps
                    line += (" tune[rate="
                             + ("unpaced" if rate is None
                                else f"{rate / 1e6:.1f}Mb/s")
                             + f" F={tuner.ack_frequency}"
                             + f" B={tuner.batch_size}"
                             + f" waste={tuner.last_waste:.3f}"
                             + f" stalls={tuner.last_stalls}]")
                print(line, file=sys.stderr)
            if now > deadline:
                return False, "file receive timed out", receiver
            if receiver.idle_since(now, start) > config.receiver_idle_timeout:
                return False, (
                    f"receiver gave up: no data for "
                    f"{config.receiver_idle_timeout:.1f}s "
                    f"({receiver.bitmap.count}/{receiver.npackets} packets)"
                ), receiver
            try:
                datagram = data_sock.recv(65535)
            except socket.timeout:
                continue
            if kill is not None and kill.should_fire(ndata):
                kill.fire(now)
                if journal is not None:
                    journal.simulate_crash()
                return False, (f"receiver killed by crash injection after "
                               f"{ndata} data packets"), receiver
            try:
                pkt, payload = wire.decode_data(datagram,
                                                checksum=config.checksum,
                                                session=session)
            except wire.ChecksumError:
                receiver.on_corrupt_data(time.monotonic())
                continue  # damaged in flight; the sender re-sends it
            except (wire.StaleEpochError, wire.SessionMismatchError):
                receiver.on_stale_data(0)
                continue  # zombie datagram from a dead attempt
            ndata += 1
            # Data before log: the payload must be on "disk" before the
            # journal claims it (on_data journals newly marked packets).
            try:
                part_fh.seek(pkt.seq * config.packet_size)
                part_fh.write(payload)
                ack = receiver.on_data(pkt.seq, time.monotonic())
            except OSError as exc:
                # Disk fault (ENOSPC/EIO) on the part file or journal:
                # fail the *attempt*, not the process.  The journal
                # holds everything durable so far; the supervisor
                # retries with backoff and resumes from it.
                return False, _storage_reason("part", exc), receiver
            if ack is not None and not blackhole_acks:
                ack_sock.sendto(
                    wire.encode_ack(ack, checksum=config.checksum,
                                    session=session),
                    (peer[0], offer.ack_port))
        try:
            part_fh.flush()
        except OSError as exc:
            return False, _storage_reason("part-flush", exc), receiver
        return True, None, receiver
    finally:
        data_sock.close()
        ack_sock.close()


#: Failure-reason prefix shared by every disk-fault path; the
#: supervisor and daemon treat these as retryable, and ``repro stats``
#: counts them.
STORAGE_FAULT_PREFIX = "storage fault"


def _storage_reason(where: str, exc: OSError) -> str:
    name = errno.errorcode.get(exc.errno, type(exc).__name__) \
        if exc.errno else type(exc).__name__
    return f"{STORAGE_FAULT_PREFIX} [{name}] at {where}: {exc}"


def is_storage_fault(reason: Optional[str]) -> bool:
    return bool(reason) and reason.startswith(STORAGE_FAULT_PREFIX)


def _verify_pass(
    phase: str,
    manifest: ChunkManifest,
    target,
    seqs,
    journal: Optional[ReceiverJournal],
    channel: TelemetryChannel = NULL_CHANNEL,
) -> VerifyStats:
    """One digest audit: check chunks, durably demote failures.

    ``target`` is an open binary file (resume audit) or a bytes blob
    (completion audit); ``seqs`` restricts the audit (None = whole
    object).  Demotion goes through the journal so it is crash-durable
    — a kill right after the pass cannot resurrect corrupt ranges.
    """
    t0 = time.monotonic()
    stats = VerifyStats(phase=phase, mode="manifest")
    if isinstance(target, (bytes, bytearray, memoryview)):
        bad = manifest.verify_blob(bytes(target), seqs)
    else:
        bad = manifest.verify_file(target, seqs)
    stats.chunks_checked = (manifest.npackets if seqs is None
                            else len(list(seqs)))
    stats.chunks_corrupt = int(bad.size)
    if bad.size:
        stats.corrupt_seqs = [int(s) for s in bad]
        stats.ranges_demoted = len(corrupt_ranges(stats.corrupt_seqs))
        stats.bytes_demoted = int(sum(
            manifest.chunk_length(int(s)) for s in bad))
        if journal is not None:
            try:
                journal.demote(bad)
            except OSError:
                # The durable demotion (compact) hit a disk fault; the
                # in-memory bitmap is demoted so this attempt behaves
                # correctly, and the next attempt's audit re-detects
                # and re-demotes.  Never let a full disk turn a caught
                # corruption into a crash.
                pass
    stats.duration = max(time.monotonic() - t0, 1e-9)
    if channel.enabled:
        channel.emit(EV_VERIFY, phase=phase, mode=stats.mode,
                     chunks_checked=stats.chunks_checked,
                     chunks_corrupt=stats.chunks_corrupt,
                     duration=stats.duration)
        if stats.chunks_corrupt:
            channel.emit(EV_CORRUPTION, phase=phase, mode=stats.mode,
                         chunks_corrupt=stats.chunks_corrupt,
                         bytes=stats.bytes_demoted)
            channel.emit(EV_REPAIR, phase=phase,
                         packets_demoted=stats.chunks_corrupt,
                         ranges_demoted=stats.ranges_demoted,
                         bytes_demoted=stats.bytes_demoted)
    return stats


def _completion_audit(
    blob: bytes,
    offer: Offer,
    manifest: Optional[ChunkManifest],
    journal: Optional[ReceiverJournal],
    channel: TelemetryChannel = NULL_CHANNEL,
) -> tuple[bool, Optional[str], VerifyStats]:
    """Verify-on-complete: the last gate before the object is blessed.

    With a manifest, every chunk is audited and corrupt ones are
    demoted for re-fetch (a *retryable* failure).  Without one, the
    whole-object CRC32 fallback can only detect, not localize: a
    mismatch demotes *everything* so the retry re-fetches the full
    object — a full restart, but a self-repairing one, never silent
    corruption.
    """
    if manifest is not None:
        stats = _verify_pass("complete", manifest, blob, None, journal,
                             channel)
        if not stats.clean:
            return False, (
                f"verify failed: {stats.chunks_corrupt} corrupt chunk(s) "
                f"demoted for re-fetch"), stats
        return True, None, stats
    t0 = time.monotonic()
    stats = VerifyStats(phase="complete", mode="crc32", chunks_checked=1)
    crc_ok = zlib.crc32(blob) == offer.crc
    stats.duration = max(time.monotonic() - t0, 1e-9)
    if channel.enabled:
        channel.emit(EV_VERIFY, phase="complete", mode="crc32",
                     chunks_checked=1, chunks_corrupt=0 if crc_ok else 1,
                     duration=stats.duration)
    if crc_ok:
        return True, None, stats
    stats.chunks_corrupt = 1
    stats.bytes_demoted = len(blob)
    if journal is not None and journal.bitmap.count:
        claimed = np.flatnonzero(journal.bitmap.array)
        stats.ranges_demoted = len(corrupt_ranges(claimed.tolist()))
        try:
            journal.demote(claimed)
        except OSError:
            pass  # in-memory demotion stands; next audit re-demotes
    if channel.enabled:
        channel.emit(EV_CORRUPTION, phase="complete", mode="crc32",
                     chunks_corrupt=1, bytes=len(blob))
        channel.emit(EV_REPAIR, phase="complete",
                     packets_demoted=int(stats.bytes_demoted and
                                         -(-len(blob) // offer.packet_size)),
                     ranges_demoted=stats.ranges_demoted,
                     bytes_demoted=stats.bytes_demoted)
    return False, ("CRC mismatch after reassembly; "
                   "all packets demoted for re-fetch"), stats


def attempt_config_for(offer: Offer, base: Optional[FobsConfig]) -> FobsConfig:
    """Receiver-side config for one offered transfer.

    Data-plane parameters (packet size, checksumming) come from the
    sender's offer; stall/liveness tuning comes from the local ``base``
    config (or the defaults).
    """
    base = base if base is not None else FobsConfig(ack_frequency=32)
    return FobsConfig(
        packet_size=offer.packet_size,
        ack_frequency=base.ack_frequency,
        checksum=bool(offer.flags & FLAG_CHECKSUM),
        stall_timeout=base.stall_timeout,
        stall_abort_after=base.stall_abort_after,
        receiver_idle_timeout=base.receiver_idle_timeout,
        ack_refresh_interval=base.ack_refresh_interval,
    )


def receive_offer(
    ctrl: socket.socket,
    peer: tuple[str, int],
    offer: Offer,
    output_path: str,
    deadline: float,
    config: Optional[FobsConfig] = None,
    journal_path: Optional[str] = None,
    bind: str = "0.0.0.0",
    telemetry: Optional[EventBus] = None,
    opener=open,
    manifest: Optional[ChunkManifest] = None,
    tuning: Optional["TuningConfig"] = None,
    stats_interval: float = 0.0,
    kill=None,
    blackhole_acks: bool = False,
) -> tuple[bool, Optional[str], Optional[FobsReceiver], float, VerifyStats]:
    """Serve one already-negotiated offer as the receiving endpoint.

    The shared receive path of :func:`receive_file` (push: a sender
    connected to us) and :func:`repro.server.fetch_file` (pull: we
    connected and the server offered) — journal management, the
    crash-persistent ``.part`` reassembly buffer, the transfer loop,
    the verify passes, the completion signal and the atomic rename all
    live here.  Returns ``(ok, failure_reason, receiver, duration,
    verify_stats)``.

    When ``offer.verify`` is set the VERIFY frame is read from ``ctrl``
    (unless the caller already parsed it into ``manifest``) and two
    audits run: journal-claimed chunks *before* the RESUME reply
    (verify-on-resume, so corrupt disk never re-enters the bitmap) and
    the whole object before completion (verify-on-complete).  Corrupt
    chunks are durably demoted and the attempt fails *retryably* — the
    next attempt re-fetches only the demoted gap.  Without a manifest
    the whole-object CRC32 is the fallback: a mismatch demotes every
    claimed packet instead of raising, so even legacy peers self-repair
    rather than loop on a poisoned journal.  Disk faults (ENOSPC/EIO)
    surface as ``storage fault`` failures, never exceptions.

    ``opener`` is the part-file factory (``open``-compatible) — the
    seam host-fault injection plugs into.  ``kill`` and
    ``blackhole_acks`` go to :func:`_receive_attempt`; a blackholed
    receiver also withholds the completion signal.
    """
    if journal_path is None:
        journal_path = output_path + ".journal"
    part_path = output_path + ".part"
    attempt_config = attempt_config_for(offer, config)
    vstats = VerifyStats()
    if offer.verify and manifest is None:
        try:
            manifest = read_verify_manifest(ctrl, offer)
        except (ConnectionError, ValueError) as exc:
            return (False, f"bad verify frame: {exc}", None, 1e-9, vstats)
    vstats.mode = "manifest" if manifest is not None else "crc32"
    journal: Optional[ReceiverJournal] = None
    resume_bitmap: Optional[np.ndarray] = None
    if offer.resumable:
        journal, replay = ReceiverJournal.open(
            journal_path, offer.transfer_id, offer.filesize,
            offer.packet_size)
        if replay is not None:
            resume_bitmap = replay.bitmap.array
    # The .part file is the crash-persistent reassembly buffer;
    # pre-size it so writes at any offset land.
    mode = "r+b" if (os.path.exists(part_path)
                     and os.path.getsize(part_path) == offer.filesize
                     and offer.resumable) else "w+b"
    if telemetry is not None and telemetry.enabled:
        channel = telemetry.channel(transfer_id=offer.transfer_id,
                                    epoch=offer.epoch, src="runtime")
        channel.emit(EV_TRANSFER_START, nbytes=offer.filesize,
                     npackets=attempt_config.npackets(offer.filesize),
                     packet_size=offer.packet_size,
                     ack_frequency=attempt_config.ack_frequency,
                     backend="runtime", role="receiver")
    else:
        channel = NULL_CHANNEL
    start = time.monotonic()
    receiver: Optional[FobsReceiver] = None
    ok, failure = False, None
    blessed = False  # passed the completion audit; safe to publish
    try:
        try:
            part_fh = opener(part_path, mode)
        except OSError as exc:
            part_fh = None
            failure = _storage_reason("part-open", exc)
        if part_fh is not None:
            try:
                try:
                    if mode == "w+b":
                        part_fh.truncate(offer.filesize)
                    # Verify-on-resume: audit every journal-claimed
                    # chunk against the manifest *before* the RESUME
                    # bitmap is built, so a torn write or bit rot under
                    # a crashed attempt is demoted — re-fetched, not
                    # resurrected.  (Without a manifest the fallback is
                    # the completion CRC; corruption is still caught,
                    # just repaired less surgically.)
                    if (manifest is not None and journal is not None
                            and mode == "r+b" and journal.bitmap.count):
                        claimed = np.flatnonzero(journal.bitmap.array)
                        vstats.merge(_verify_pass(
                            "resume", manifest, part_fh, claimed.tolist(),
                            journal, channel))
                        resume_bitmap = journal.bitmap.array
                except OSError as exc:
                    failure = _storage_reason("resume-audit", exc)
                else:
                    ok, failure, receiver = _receive_attempt(
                        ctrl, peer, offer, attempt_config, part_fh,
                        journal, resume_bitmap, bind, deadline,
                        telemetry=telemetry, tuning=tuning,
                        stats_interval=stats_interval, kill=kill,
                        blackhole_acks=blackhole_acks)
                    if ok:
                        # Verify-on-complete: the receiver's bitmap says
                        # every packet arrived; the disk gets the last
                        # word before the object is published.
                        try:
                            part_fh.seek(0)
                            blob = part_fh.read(offer.filesize)
                        except OSError as exc:
                            ok = False
                            failure = _storage_reason("readback", exc)
                        else:
                            ok, failure, audit = _completion_audit(
                                blob, offer, manifest, journal, channel)
                            vstats.merge(audit)
                            blessed = ok
            finally:
                try:
                    part_fh.close()
                except OSError as exc:
                    if ok:
                        ok, blessed = False, False
                        failure = _storage_reason("part-close", exc)
    except ConnectionError as exc:
        ok, failure = False, f"control connection lost: {exc}"
    finally:
        duration = max(time.monotonic() - start, 1e-9)
        if journal is not None:
            journal.close()
    if is_storage_fault(failure) and channel.enabled:
        channel.emit(EV_STORAGE_FAULT, detail=failure or "")
    if channel.enabled:
        channel.emit(
            EV_TRANSFER_END, completed=ok, failed=not ok, duration=duration,
            throughput_bps=offer.filesize * 8.0 / duration if ok else 0.0,
            resumed_packets=(receiver.stats.resumed_packets
                             if receiver is not None else 0),
            failure_reason=failure or "")
    if not (ok and blessed):
        return False, failure, receiver, duration, vstats
    if not blackhole_acks:
        try:
            ctrl.sendall(wire.encode_completion(receiver.npackets))
        except OSError:
            pass  # sender may already have concluded
    os.replace(part_path, output_path)
    if offer.resumable:
        try:
            os.remove(journal_path)
        except OSError:
            pass
    return True, None, receiver, duration, vstats


def listen_control(bind: str, port: int) -> socket.socket:
    """Bind and listen on a receiver's TCP control port (0 = any free)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((bind, port))
    listener.listen(1)
    return listener


def receive_file(
    output_path: str,
    port: int,
    bind: str = "0.0.0.0",
    timeout: float = 120.0,
    max_attempts: int = 1,
    journal_path: Optional[str] = None,
    config: Optional[FobsConfig] = None,
    opener=open,
    listener: Optional[socket.socket] = None,
) -> FileTransferResult:
    """Accept one file from a :func:`send_file` peer; returns on completion.

    ``listener``, when given, is an already-listening control socket
    (from :func:`listen_control`) used instead of binding
    ``bind:port``; it is closed on return.  :class:`LoopbackReceiver`
    runs this on a thread for a sender in the same process.

    ``max_attempts`` keeps the control port listening across failed
    attempts: when a resumable sender crashes (or the connection is
    lost), the receiver's journal and ``.part`` file survive and the
    next connection resumes from them.  ``journal_path`` defaults to
    ``output_path + ".journal"``.  ``config``, when given, supplies
    stall/liveness tuning (``receiver_idle_timeout``, timeouts); the
    data-plane parameters (packet size, checksumming) always come from
    the sender's offer.
    """
    if listener is None:
        listener = listen_control(bind, port)
    result = _serve(listener, output_path, bind, timeout, max_attempts,
                    journal_path, config, opener)
    if max_attempts <= 1 and not result.completed:
        raise TimeoutError(f"file receive failed: {result.failure_reason}")
    return result


def _serve(
    listener: socket.socket,
    output_path: str,
    bind: str,
    timeout: float,
    max_attempts: int,
    journal_path: Optional[str],
    config: Optional[FobsConfig],
    opener,
    kill=None,
    blackhole_acks: bool = False,
) -> FileTransferResult:
    """The body of :func:`receive_file`: accept and serve up to
    ``max_attempts`` offers on ``listener``, then close it.

    Protocol failures are returned (``completed=False``), not raised.
    A listener shut down from another thread ends the wait for the
    next attempt at once.
    """
    listener.settimeout(timeout)
    deadline = time.monotonic() + timeout

    attempts = 0
    ok, failure = False, None
    receiver: Optional[FobsReceiver] = None
    offer: Optional[Offer] = None
    duration = 1e-9
    vtotal = VerifyStats()
    storage_faults = 0
    try:
        while attempts < max(max_attempts, 1):
            attempts += 1
            try:
                ctrl, peer = listener.accept()
            except socket.timeout:
                failure = "timed out waiting for a sender connection"
                break
            except OSError:  # shut down: no sender will connect again
                failure = failure or "no sender connected"
                break
            with ctrl:
                ctrl.settimeout(timeout)
                try:
                    offer = read_offer(ctrl)
                except (ConnectionError, ValueError) as exc:
                    failure = f"bad offer: {exc}"
                    continue
                ok, failure, receiver, duration, vstats = receive_offer(
                    ctrl, peer, offer, output_path, deadline,
                    config=config, journal_path=journal_path, bind=bind,
                    opener=opener, kill=kill, blackhole_acks=blackhole_acks)
                vtotal.merge(vstats)
                if is_storage_fault(failure):
                    storage_faults += 1
                if ok or time.monotonic() > deadline:
                    break
    finally:
        listener.close()
    return FileTransferResult(
        path=output_path,
        nbytes=offer.filesize if offer is not None else 0,
        duration=duration,
        throughput_bps=offer.filesize * 8.0 / duration if ok else 0.0,
        crc_ok=ok,
        completed=ok,
        failure_reason=failure,
        attempts=attempts,
        resumed_packets=(receiver.stats.resumed_packets
                         if receiver is not None else 0),
        stale_epoch_dropped=(receiver.stats.stale_epoch_data
                             if receiver is not None else 0),
        ranges_demoted=vtotal.ranges_demoted,
        packets_demoted=vtotal.chunks_corrupt,
        bytes_refetched=vtotal.bytes_demoted,
        verify_seconds=vtotal.duration,
        storage_faults=storage_faults,
        receiver_stats=receiver.stats if receiver is not None else None,
    )


class LoopbackReceiver(threading.Thread):
    """:func:`receive_file` on a thread, for a sender in this process.

    The control listener is bound to 127.0.0.1 port 0 in the
    constructor, so :attr:`port` — the kernel's choice — is live before
    the sender dials: no fixed port, no probe-then-close race::

        with LoopbackReceiver(out_path, max_attempts=3) as rx:
            send_file(src_path, "127.0.0.1", rx.port, resume=True)
        rx.result   # the receiver's FileTransferResult

    Leaving the block shuts the listener down (a receiver waiting for
    a retry that will never come returns at once) and joins the thread.
    It raises if the thread failed or outlived ``timeout``.  Failures
    are reported in :attr:`result`, never raised, whatever
    ``max_attempts`` is.  ``kill`` and ``blackhole_acks`` are the
    receiver-side fault hooks of :func:`receive_offer`.
    """

    def __init__(self, output_path: str, timeout: float = 120.0,
                 max_attempts: int = 1, journal_path: Optional[str] = None,
                 config: Optional[FobsConfig] = None, opener=open,
                 kill=None, blackhole_acks: bool = False):
        super().__init__(name="fobs-receiver", daemon=True)
        self._listener = listen_control("127.0.0.1", 0)
        self.port: int = self._listener.getsockname()[1]
        self._args = (self._listener, output_path, "127.0.0.1", timeout,
                      max_attempts, journal_path, config, opener, kill,
                      blackhole_acks)
        self._timeout = timeout
        self.result: Optional[FileTransferResult] = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self.result = _serve(*self._args)
        except BaseException as exc:  # re-raised by __exit__
            self.error = exc

    def __enter__(self) -> "LoopbackReceiver":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed by a finished receiver
        self.join(self._timeout + 10)
        if exc_type is not None:
            return  # the sender's exception takes precedence
        if self.is_alive():
            raise TimeoutError("loopback receiver did not finish")
        if self.error is not None:
            raise RuntimeError("loopback receiver failed") from self.error
