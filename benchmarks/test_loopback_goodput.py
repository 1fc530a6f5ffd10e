"""Real-socket loopback goodput + hot-path efficiency counters.

Writes ``benchmarks/results/BENCH_loopback.json``::

    {"bench": "loopback", "schema": 1, "entries": [...]}

Three measurements over one checksummed 4 MB loopback transfer (the
same object/packet geometry as the DES throughput baseline):

* **goodput** — delivered payload bits per wall-clock second through
  the real UDP/TCP backend (two threads, localhost).
* **syscalls/packet** — socket-layer calls (sendto, recv, recv_into,
  select) per data packet sent, counted by replacing
  ``socket.socket`` and ``select.select`` for the duration of the run.
  The loopback transfer is the file-transfer path: one ``sendto`` per
  datagram, one non-blocking ACK poll and one control-channel poll per
  batch at the sender, and one blocking ``recv`` per datagram plus one
  ``sendto`` per ACK at the receiver.
* **allocations/packet** — net Python heap blocks allocated per
  packet during the transfer (``sys.getallocatedblocks`` delta): a
  leak per packet shows up here.

Loopback wall-clock numbers move with the host, so the committed
artifact is a baseline; the hard assertions are generous floors that
only a real hot-path regression should cross.
"""

from __future__ import annotations

import gc
import json
import select as select_mod
import socket
import sys
import time

import pytest

from repro.core.config import FobsConfig
from repro.runtime.transfer import run_loopback_transfer

from _bench_support import RESULTS_DIR, emit

pytestmark = pytest.mark.chaos

BENCH_PATH = RESULTS_DIR / "BENCH_loopback.json"
NBYTES = 4_000_000
PACKET_SIZE = 1024


class _CountingSocket(socket.socket):
    """socket.socket that tallies the calls the hot path issues."""

    counters = {"sendto": 0, "recv": 0, "recv_into": 0}

    def sendto(self, *args):
        _CountingSocket.counters["sendto"] += 1
        return super().sendto(*args)

    def recv(self, *args):
        _CountingSocket.counters["recv"] += 1
        return super().recv(*args)

    def recv_into(self, *args):
        _CountingSocket.counters["recv_into"] += 1
        return super().recv_into(*args)


@pytest.fixture(scope="module")
def measurements():
    # Blast-mode geometry, like the paper's sender: big batches (the
    # default batch_size=2 spends the whole transfer in adaptive
    # ramp-up and idle sleeps).
    config = FobsConfig(packet_size=PACKET_SIZE, ack_frequency=16,
                        checksum=True, batch_size=16, max_batch_size=64)
    counters = _CountingSocket.counters
    for key in counters:
        counters[key] = 0
    select_calls = 0
    real_select = select_mod.select

    def counting_select(*args, **kwargs):
        nonlocal select_calls
        select_calls += 1
        return real_select(*args, **kwargs)

    orig_socket = socket.socket
    orig_sel = select_mod.select
    socket.socket = _CountingSocket
    select_mod.select = counting_select
    try:
        gc.collect()
        blocks_before = sys.getallocatedblocks()
        t0 = time.perf_counter()
        result = run_loopback_transfer(
            nbytes=NBYTES, config=config, timeout=120.0)
        wall = time.perf_counter() - t0
        blocks_after = sys.getallocatedblocks()
    finally:
        socket.socket = orig_socket
        select_mod.select = orig_sel

    assert result.completed and result.checksum_ok
    packets = max(result.packets_sent, 1)
    syscalls = (counters["sendto"] + counters["recv"]
                + counters["recv_into"] + select_calls)
    return {
        "nbytes": NBYTES,
        "packet_size": PACKET_SIZE,
        "checksum": True,
        "goodput": {
            "wall_s": round(wall, 4),
            "mbps": round(NBYTES * 8 / wall / 1e6, 1),
            "packets_sent": result.packets_sent,
            "retransmissions": result.packets_retransmitted,
        },
        "syscalls": {
            "sendto": counters["sendto"],
            "recv": counters["recv"],
            "recv_into": counters["recv_into"],
            "select": select_calls,
            "per_packet": round(syscalls / packets, 2),
        },
        "allocs": {
            "net_blocks": blocks_after - blocks_before,
            "per_packet": round((blocks_after - blocks_before) / packets, 2),
        },
    }


def test_loopback_goodput_and_artifact(measurements, capsys):
    m = measurements
    lines = [
        f"Loopback goodput + hot-path counters ({m['nbytes']} B object, "
        f"{m['packet_size']} B packets, checksummed)",
        f"  goodput: {m['goodput']['mbps']:.0f} Mb/s "
        f"({m['goodput']['packets_sent']} packets in "
        f"{m['goodput']['wall_s']:.3f}s, "
        f"{m['goodput']['retransmissions']} retransmissions)",
        f"  syscalls/packet: {m['syscalls']['per_packet']:.2f} "
        f"(sendto {m['syscalls']['sendto']}, recv {m['syscalls']['recv']}, "
        f"recv_into {m['syscalls']['recv_into']}, "
        f"select {m['syscalls']['select']})",
        f"  net heap blocks/packet: {m['allocs']['per_packet']:.2f}",
    ]
    emit("loopback_goodput", "\n".join(lines), capsys)

    payload = {"bench": "loopback", "schema": 1, "entries": [m]}
    BENCH_PATH.write_text(json.dumps(payload, sort_keys=True, indent=2)
                          + "\n")
    assert BENCH_PATH.stat().st_size > 0


def test_goodput_clears_floor(measurements):
    assert measurements["goodput"]["mbps"] > 2, (
        "loopback goodput below 2 Mb/s — hot-path regression")


def test_syscall_batching_holds(measurements):
    """The sender and receiver loops should issue a small bounded
    number of socket calls per data packet; extra polls or sends per
    datagram show up here first."""
    assert measurements["syscalls"]["per_packet"] < 8, (
        "socket calls per packet grew past 8 — syscall batching broken")
