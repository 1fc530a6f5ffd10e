"""The ``serve_mixed`` workload: the ``repro serve`` daemon under
concurrent fetch and push load over loopback.

The daemon is a child process with its defaults (1024 B packets, F=32,
checksums on), bound to 127.0.0.1.  One load process runs two client
threads in closed loops: one fetches 4 MiB objects with
``repro.server.fetch_file`` (verify on, the default), the other pushes
4 MiB files with ``repro.runtime.files.send_file(..., resume=True)``.
Each thread starts its next operation only when the previous one ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from repro.core.packets import DataPacket
from repro.runtime import files, wire
from repro.server import client

from common import (BENCH_DIR, SETUP_REPEATS, WORK_DIR, child_env, geomean,
                    median, ratio, tail)
from layertrace import LayerTracer, layer_metrics, merge_totals

OBJECT_BYTES = 4 * 1024 * 1024
PACKET_SIZE = 1024
N_OBJECTS = 2
HOST = "127.0.0.1"

_DONE = re.compile(r"serve done completed=(\d+) failed=(\d+) rejected=(\d+) "
                   r"bytes_sent=(\d+) bytes_received=(\d+)")


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def _proc_cpu(pid: int) -> Optional[float]:
    """User + system CPU seconds of a live child, from /proc."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """One ``repro serve`` child: start, poll readiness, stop with SIGTERM."""

    def __init__(self, root: str, workdir: str,
                 trace_out: Optional[str] = None):
        self.root = root
        self.trace_out = trace_out
        self.log_path = os.path.join(workdir, f"daemon-{id(self)}.log")
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        self.done: Optional[dict] = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and poll until it accepts connections; returns the time."""
        self.port = free_port()
        args = [self.root, "--port", str(self.port), "--bind", HOST, "--quiet"]
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "daemon_traced.py"),
                   self.trace_out, *args]
        t0 = time.perf_counter()
        with open(self.log_path, "w") as err:
            self.proc = subprocess.Popen(cmd, env=child_env(),
                                         stdout=subprocess.PIPE, stderr=err,
                                         text=True)
        while True:
            try:
                socket.create_connection((HOST, self.port), timeout=1.0).close()
                return time.perf_counter() - t0
            except OSError:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with {self.proc.returncode} before "
                        f"accepting connections") from None
                if time.perf_counter() - t0 > timeout:
                    self.kill()
                    raise RuntimeError("daemon did not accept connections")
                time.sleep(0.002)

    def cpu(self) -> Optional[float]:
        return _proc_cpu(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> Optional[str]:
        """SIGTERM, wait, parse the summary line; returns an error or None."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return "daemon did not exit after SIGTERM"
        match = _DONE.search(out or "")
        if match:
            keys = ("completed", "failed", "rejected", "bytes_sent",
                    "bytes_received")
            self.done = dict(zip(keys, map(int, match.groups())))
        if self.proc.returncode != 0:
            return f"daemon exited with status {self.proc.returncode}"
        if self.done is None:
            return "daemon printed no 'serve done' line"
        return None

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


@dataclass
class Op:
    kind: str
    wall: float
    nbytes: int
    #: Data datagrams the sending side put on the wire (push only; the
    #: daemon's fetch datagrams come from its summary line).
    datagrams: int
    error: Optional[str]
    #: CPU seconds the load process spent preparing and checking this
    #: operation (outside the operation itself).
    check_cpu: float


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _remove(*paths: str) -> None:
    """Delete files that may already be gone (the daemon removes its
    push journal and part file on its own schedule)."""
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


class Load:
    """Closed-loop fetch and push clients against one daemon."""

    def __init__(self, seed: int, size: int, root: str, clientdir: str,
                 objects: dict[str, str], tracer: Optional[LayerTracer]):
        rng = random.Random(f"serve_mixed:load:{seed}")
        self.fetch_rng = random.Random(rng.getrandbits(64))
        self.push_rng = random.Random(rng.getrandbits(64))
        self.push_base = rng.randbytes(size)
        self.size = size
        self.root = root
        self.clientdir = clientdir
        self.objects = objects
        self.tracer = tracer
        self.ops: list[Op] = []
        self.windows: list[float] = []
        self._lock = threading.Lock()

    def _check(self, label: str, fn, *args):
        c0 = time.thread_time()
        out = (fn(*args) if self.tracer is None
               else self.tracer.span(f"bench:{label}", fn, *args))
        return out, time.thread_time() - c0

    def _fetch_once(self, port: int, i: int) -> Op:
        names = sorted(self.objects)
        name = names[i % len(names)]
        out = os.path.join(self.clientdir, f"fetch-{i}.bin")
        nonce = self.fetch_rng.getrandbits(63) | 1
        t0 = time.perf_counter()
        res = client.fetch_file(name, HOST, port, out, client_nonce=nonce,
                                timeout=60.0)
        wall = time.perf_counter() - t0
        error, check_cpu = self._check("check_fetch", self._verify_fetch,
                                       res, name, out)
        return Op("fetch", wall, self.size if error is None else 0, 0, error,
                  check_cpu)

    def _verify_fetch(self, res, name: str, out: str) -> Optional[str]:
        error = None
        if not res.completed:
            error = f"fetch {name}: {res.failure_reason}"
        elif _sha(out) != self.objects[name]:
            error = f"fetch {name}: sha256 mismatch"
        _remove(out, out + ".journal", out + ".part")
        return error

    def _push_once(self, port: int, i: int) -> Op:
        tid = self.push_rng.getrandbits(63) | 1
        src = os.path.join(self.clientdir, "push-src.bin")
        expected, prep_cpu = self._check("prepare_push", self._write_source,
                                         src, tid, i)
        t0 = time.perf_counter()
        res = files.send_file(src, HOST, port, resume=True, transfer_id=tid,
                              timeout=60.0)
        wall = time.perf_counter() - t0
        error, check_cpu = self._check("check_push", self._verify_push,
                                       res, tid, expected)
        return Op("push", wall, self.size if error is None else 0,
                  res.packets_sent, error, prep_cpu + check_cpu)

    def _write_source(self, src: str, tid: int, i: int) -> str:
        """Write this push's own content; returns its SHA-256."""
        content = bytearray(self.push_base)
        content[:16] = struct.pack("!QQ", tid, i)
        with open(src, "wb") as fh:
            fh.write(content)
        return hashlib.sha256(content).hexdigest()

    def _verify_push(self, res, tid: int, expected: str) -> Optional[str]:
        dest = os.path.join(self.root, f"push-{tid:016x}.bin")
        error = None
        if not res.completed:
            error = f"push {tid:#x}: {res.failure_reason}"
        else:
            # The daemon signals completion before it renames the part
            # file into place; give the rename a moment.
            deadline = time.perf_counter() + 10.0
            while not os.path.exists(dest) and time.perf_counter() < deadline:
                time.sleep(0.001)
            if not os.path.exists(dest):
                error = f"push {tid:#x}: {dest} never appeared"
            elif _sha(dest) != expected:
                error = f"push {tid:#x}: sha256 mismatch"
        _remove(dest, dest + ".journal", dest + ".part")
        return error

    def _loop(self, kind: str, port: int, deadline: float) -> None:
        once = self._fetch_once if kind == "fetch" else self._push_once
        ops = []
        t0 = time.perf_counter()
        i = 0
        while time.perf_counter() < deadline:
            try:
                ops.append(once(port, i))
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                traceback.print_exc()
                ops.append(Op(kind, 0.0, 0, 0,
                              f"{type(exc).__name__}: {exc}", 0.0))
            i += 1
        with self._lock:
            self.ops += ops
            self.windows.append(time.perf_counter() - t0)

    def run(self, port: int, seconds: float) -> float:
        """Both clients until ``seconds`` pass; returns the wall time
        until the last operation ended."""
        t0 = time.perf_counter()
        deadline = t0 + seconds
        threads = [threading.Thread(target=self._loop, args=(k, port, deadline))
                   for k in ("fetch", "push")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0


def _data_wire_bytes() -> int:
    """Wire size of one full data datagram with checksum and session."""
    pkt = DataPacket(seq=0, total=1, payload_bytes=PACKET_SIZE)
    return len(wire.encode_data(pkt, bytes(PACKET_SIZE), checksum=True,
                                session=wire.SessionContext(1, 0)))


def _phase(seed: int, seconds: float, size: int, root: str, clientdir: str,
           objects: dict[str, str], workdir: str, traced: bool) -> dict:
    """One daemon plus one load window; returns raw measurements."""
    tracer = LayerTracer() if traced else None
    trace_out = os.path.join(workdir, "daemon-trace.json") if traced else None
    load = Load(seed, size, root, clientdir, objects, tracer)
    daemon = Daemon(root, workdir, trace_out)
    daemon.start()
    try:
        if tracer is not None:
            tracer.install()
        cpu_c0 = time.process_time()
        cpu_s0 = daemon.cpu()
        try:
            wall = load.run(daemon.port, seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu_c = time.process_time() - cpu_c0
        cpu_s1 = daemon.cpu()
    finally:
        stop_error = daemon.stop()
    server_trace = None
    if traced:
        server_trace, trace_error = _read_daemon_trace(trace_out)
        stop_error = stop_error or trace_error
    return {"load": load, "wall": wall, "daemon": daemon, "tracer": tracer,
            "stop_error": stop_error, "client_cpu": cpu_c,
            "server_cpu": (cpu_s1 - cpu_s0
                           if cpu_s0 is not None and cpu_s1 is not None
                           else None),
            "server_trace": server_trace}


#: Daemon-side trace of a daemon that wrote none: no layer time, no counts.
_EMPTY_DAEMON_TRACE = {
    "totals": {}, "wall": 0.0, "queued": 0,
    "senders": {"acks_processed": 0, "packets_sent": 0},
    "receivers": {"packets_duplicate": 0, "acks_built": 0}}


def _read_daemon_trace(path: str) -> tuple[dict, Optional[str]]:
    """The traced daemon's report, or an empty one plus an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), None
    except (OSError, ValueError) as exc:
        return _EMPTY_DAEMON_TRACE, f"daemon trace unreadable: {exc}"


def _phase_summary(p: dict, size: int) -> dict:
    load: Load = p["load"]
    ops = load.ops
    errors = [op.error for op in ops if op.error]
    failed_ops = len(errors)
    # The daemon's lifecycle counts as one more checked operation: it
    # must exit 0 on SIGTERM and its tally must match the clients'.
    if p["stop_error"]:
        errors.append(p["stop_error"])
    done = p["daemon"].done
    ok_ops = sum(1 for op in ops if op.error is None)
    if done is not None and (done["completed"] != ok_ops or done["failed"]):
        errors.append(f"daemon tally completed={done['completed']} "
                      f"failed={done['failed']}, clients saw {ok_ops} ok "
                      f"of {len(ops)}")
    delivered = sum(op.nbytes for op in ops)
    mb = delivered / 1e6
    pkts_per_op = -(-size // PACKET_SIZE)
    n_fetch = sum(1 for op in ops if op.kind == "fetch")
    n_push = len(ops) - n_fetch
    required = pkts_per_op * len(ops)
    fetch_datagrams = (done["bytes_sent"] / _data_wire_bytes()
                       if done is not None else 0.0)
    push_datagrams = sum(op.datagrams for op in ops)
    walls = {k: [op.wall for op in ops if op.kind == k and op.error is None]
             for k in ("fetch", "push")}
    client_cpu = p["client_cpu"] - sum(op.check_cpu for op in ops)
    server_cpu = p["server_cpu"] or 0.0
    medians = [median(w) for w in walls.values() if w]
    return {
        "errors": errors, "attempted": len(ops) + 1,
        "failed": failed_ops + (len(errors) > failed_ops),
        "mb": mb, "wall": p["wall"],
        "pkts": delivered / PACKET_SIZE,
        "goodput_mbps": ratio(delivered * 8.0, p["wall"]) / 1e6,
        "op_s.p50": geomean(medians),
        "cpu_ms_per_mb": ratio((client_cpu + server_cpu) * 1e3, mb),
        "client_cpu_ms_per_mb": ratio(client_cpu * 1e3, mb),
        "server_cpu_ms_per_mb": ratio(server_cpu * 1e3, mb),
        "datagrams_per_pkt": ratio(fetch_datagrams + push_datagrams, required),
        "ops": {k: tail(w) for k, w in walls.items()},
        "n_fetch": n_fetch, "n_push": n_push, "daemon": done,
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    size = OBJECT_BYTES
    workdir = os.path.join(WORK_DIR, f"serve_mixed-{os.getpid()}")
    root = os.path.join(workdir, "objects")
    clientdir = os.path.join(workdir, "client")
    os.makedirs(root)
    os.makedirs(clientdir)
    try:
        rng = random.Random(f"serve_mixed:objects:{seed}")
        objects = {}
        for i in range(N_OBJECTS):
            data = rng.randbytes(size)
            name = f"obj-{i}.bin"
            with open(os.path.join(root, name), "wb") as fh:
                fh.write(data)
            objects[name] = hashlib.sha256(data).hexdigest()
        if trace:
            return _run_traced(seed, seconds, size, root, clientdir, objects,
                               workdir)
        return _run_plain(seed, seconds, size, root, clientdir, objects,
                          workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_setup(root: str, workdir: str, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        daemon = Daemon(root, workdir)
        samples.append(daemon.start())
        error = daemon.stop()
        if error:
            raise RuntimeError(f"setup daemon: {error}")
    return samples


def _run_plain(seed, seconds, size, root, clientdir, objects,
               workdir) -> dict:
    setup = _measure_setup(root, workdir, SETUP_REPEATS)
    s = _phase_summary(_phase(seed, seconds, size, root, clientdir, objects,
                              workdir, traced=False), size)
    metrics = {
        "goodput_mbps": (s["goodput_mbps"], "Mb/s"),
        "op_s.p50": (s["op_s.p50"], "s"),
        "cpu_ms_per_mb": (s["cpu_ms_per_mb"], "ms/MB"),
        "datagrams_per_pkt": (s["datagrams_per_pkt"], "1/pkt"),
        "setup_s": (median(setup), "s"),
    }
    detail = {k: s[k] for k in ("ops", "n_fetch", "n_push", "daemon",
                                "client_cpu_ms_per_mb",
                                "server_cpu_ms_per_mb", "wall")}
    detail["setup_samples"] = setup
    return {"metrics": metrics, "attempted": s["attempted"],
            "failed": s["failed"], "errors": s["errors"], "detail": detail}


def _run_traced(seed, seconds, size, root, clientdir, objects,
                workdir) -> dict:
    """An untraced half then a traced half, each with its own daemon."""
    half = seconds / 2.0
    plain = _phase_summary(_phase(seed, half, size, root, clientdir, objects,
                                  workdir, traced=False), size)
    raw = _phase(seed, half, size, root, clientdir, objects, workdir,
                 traced=True)
    traced = _phase_summary(raw, size)
    errors = plain["errors"] + traced["errors"]
    server = raw["server_trace"]
    tracer: LayerTracer = raw["tracer"]
    # Endpoint counters: senders and receivers on both sides.
    senders = [s.stats for s in tracer.instances.get("FobsSender", [])]
    receivers = [r.stats for r in tracer.instances.get("FobsReceiver", [])]
    load: Load = raw["load"]
    totals = merge_totals(tracer.totals(), server["totals"])
    layers = layer_metrics(totals, {
        "pkts": traced["pkts"],
        "mb": traced["mb"],
        "windows": sum(load.windows) + server["wall"],
        "overhead": ratio(traced["op_s.p50"], plain["op_s.p50"]) - 1.0,
        "acks": (sum(s.acks_processed for s in senders)
                 + server["senders"]["acks_processed"]),
        "dups": (sum(r.packets_duplicate for r in receivers)
                 + server["receivers"]["packets_duplicate"]),
        "acks_built": (sum(r.acks_built for r in receivers)
                       + server["receivers"]["acks_built"]),
        "queued": server["queued"],
        "server_cpu_ms_per_mb": plain["server_cpu_ms_per_mb"],
        "client_cpu_ms_per_mb": plain["client_cpu_ms_per_mb"],
    })
    keep = ("ops", "op_s.p50", "goodput_mbps", "daemon")
    detail = {"untraced": {k: plain[k] for k in keep},
              "traced": {k: traced[k] for k in keep},
              "layer_totals": totals}
    return {"layers": layers,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "errors": errors,
            "detail": detail}
