"""Outside-in per-layer tracing for the benchmark.

A :class:`LayerTracer` replaces the public entry points of each layer
(class methods, module functions, socket methods) with thin wrappers
and restores the originals on :meth:`LayerTracer.uninstall`.  Each
wrapper times its call and keeps a per-thread stack, so a layer's
*self* time is its inclusive time minus the time spent in traced calls
nested inside it.  Calls are aggregated per ``layer:function`` label
(one running total each), never stored as individual spans.

The program itself is not modified: wrappers are installed from the
benchmark's own files, before the objects they trace are built.
"""

from __future__ import annotations

import importlib
import select
import selectors
import socket
import sys
import threading
import time
from typing import Callable, Optional

from common import ratio

#: layer -> (module, owner, attribute names).  ``owner`` None means
#: module-level functions, patched in every loaded ``repro`` module that
#: imported them by name.
LAYERS: dict[str, tuple[tuple[str, Optional[str], tuple[str, ...]], ...]] = {
    "simnet": (("repro.simnet.engine", "Simulator", ("run",)),),
    "core.session": (("repro.core.session", None, ("run_fobs_transfer",)),),
    "core.sender": (("repro.core.sender", "FobsSender",
                     ("next_batch", "on_ack", "poll_stall", "probe_batch")),),
    "core.bitmap": (("repro.core.bitmap", "PacketBitmap", ("merge",)),),
    "core.receiver": (("repro.core.receiver", "FobsReceiver",
                       ("on_data", "build_ack")),),
    "core.journal": (("repro.core.journal", "ReceiverJournal",
                      ("record", "record_range", "flush", "compact")),),
    "core.manifest": (("repro.core.manifest", "ChunkManifest",
                       ("from_data", "from_file", "verify_file",
                        "verify_blob")),),
    "runtime.wire": (("repro.runtime.wire", None,
                      ("encode_data", "encode_data_burst", "decode_data",
                       "decode_data_burst", "encode_ack", "decode_ack")),),
    "server": (("repro.server.daemon", "ObjectServer", ("serve_forever",)),),
    "client": (("repro.server.client", None, ("fetch_file",)),
               ("repro.runtime.files", None, ("send_file",))),
    "telemetry": (("repro.telemetry.bus", "TelemetryChannel", ("emit",)),
                  ("repro.telemetry.bus", "JsonlSink", ("accept",))),
}

#: Socket receive methods: a call on a socket with a timeout (blocking)
#: counts as waiting, a call on a non-blocking socket as busy.  Sends
#: are always busy: a UDP send does not wait for the peer.
SOCKET_RECV_METHODS = ("recv", "recv_into")

#: Classes whose instances are kept so their counters can be summed.
INSTANCE_CLASSES = (("repro.core.sender", "FobsSender"),
                    ("repro.core.receiver", "FobsReceiver"),
                    ("repro.server.daemon", "ObjectServer"))


class _ThreadTotals:
    __slots__ = ("stack", "acc")

    def __init__(self) -> None:
        #: Time spent in traced children, one slot per open call.
        self.stack: list[float] = []
        #: label -> [self seconds, calls, inclusive seconds]
        self.acc: dict[str, list] = {}


class LayerTracer:
    """Installs timing wrappers and sums self time per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadTotals] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.instances: dict[str, list] = {}

    # -- accounting ---------------------------------------------------
    def _thread(self) -> _ThreadTotals:
        try:
            return self._tls.totals
        except AttributeError:
            totals = _ThreadTotals()
            self._tls.totals = totals
            with self._lock:
                self._threads.append(totals)
            return totals

    def span(self, label: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one traced span under ``label``."""
        return self.wrap(label, fn)(*args, **kwargs)

    def wrap(self, label: str, fn: Callable,
             pick: Optional[Callable] = None) -> Callable:
        """A wrapper timing ``fn`` under ``label`` (or ``pick(args)``)."""
        perf = self._clock
        tls = self._tls
        thread = self._thread

        def traced(*args, **kwargs):
            try:
                totals = tls.totals
            except AttributeError:
                totals = thread()
            stack = totals.stack
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                key = label if pick is None else pick(args)
                acc = totals.acc.get(key)
                if acc is None:
                    acc = totals.acc[key] = [0.0, 0, 0.0]
                acc[0] += dt - child
                acc[1] += 1
                acc[2] += dt
                if stack:
                    stack[-1] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def totals(self) -> dict[str, list]:
        """label -> [self s, calls, inclusive s], summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for key, (self_s, calls, incl) in list(totals.acc.items()):
                acc = out.setdefault(key, [0.0, 0, 0.0])
                acc[0] += self_s
                acc[1] += calls
                acc[2] += incl
        return out

    # -- patching -----------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, new)

    def _patch_method(self, cls, attr: str, label: str) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(label, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(label, raw.__func__))
        else:
            new = self.wrap(label, raw)
        self._patch(cls, attr, new)

    def _patch_function(self, module, attr: str, label: str) -> None:
        original = getattr(module, attr)
        new = self.wrap(label, original)
        for name, mod in list(sys.modules.items()):
            if (mod is not None and (name == "repro" or name.startswith("repro."))
                    and getattr(mod, attr, None) is original):
                self._patch(mod, attr, new)

    def _patch_init(self, cls, key: str) -> None:
        original = vars(cls)["__init__"]
        found = self.instances.setdefault(key, [])

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            found.append(obj)

        self._patch(cls, "__init__", init)

    def install(self) -> None:
        """Wrap every layer's entry points and the socket API."""
        for layer, targets in LAYERS.items():
            for module_name, owner, attrs in targets:
                module = importlib.import_module(module_name)
                for attr in attrs:
                    label = f"{layer}:{attr}"
                    if owner is None:
                        self._patch_function(module, attr, label)
                    else:
                        self._patch_method(getattr(module, owner), attr,
                                           label)
        for module_name, cls_name in INSTANCE_CLASSES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch_init(cls, cls_name)
        self._install_sockets()

    def _install_sockets(self) -> None:
        def pick_for(attr: str):
            busy, wait = f"sock.busy:{attr}", f"sock.wait:{attr}"
            return lambda args: wait if args[0].gettimeout() != 0.0 else busy

        for attr in SOCKET_RECV_METHODS:
            self._patch(socket.socket, attr, self.wrap(
                f"sock:{attr}", getattr(socket.socket, attr),
                pick=pick_for(attr)))
        self._patch(socket.socket, "sendto", self.wrap(
            "sock.busy:sendto", socket.socket.sendto))
        self._patch(select, "select",
                    self.wrap("sock.wait:select", select.select))
        cls = selectors.DefaultSelector
        self._patch(cls, "select", self.wrap("sock.wait:selector",
                                             cls.select))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, old, own = self._patches.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def layer_sum(totals: dict[str, list], layer: str, field: int = 0) -> float:
    """Sum one field (0 self s, 1 calls, 2 inclusive s) over a layer."""
    prefix = layer + ":"
    return sum(v[field] for k, v in totals.items() if k.startswith(prefix))


def merge_totals(*parts: dict[str, list]) -> dict[str, list]:
    """Element-wise sum of several :meth:`LayerTracer.totals` dicts."""
    out: dict[str, list] = {}
    for part in parts:
        for key, vals in part.items():
            acc = out.setdefault(key, [0.0, 0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
    return out


def layer_metrics(totals: dict[str, list], counts: dict) -> dict[str, float]:
    """The per-layer metrics from traced totals and a workload's counts.

    ``counts`` holds ``pkts`` (useful packets), ``mb`` (delivered MB),
    ``windows`` (traced thread wall seconds) and ``overhead``; counters
    a workload does not have (``sim_events``, ``datagrams``,
    ``rxbuf_drops``, ``acks``, ``dups``, ``acks_built``, ``events``,
    ``queued``, ``server_cpu_ms_per_mb``, ``client_cpu_ms_per_mb``) read
    as 0.  A layer the workload never ran reads 0.
    """
    c = lambda key: counts.get(key, 0.0)
    pkts, windows = counts["pkts"], counts["windows"]
    on_data = totals.get("core.receiver:on_data", [0.0, 0, 0.0])[1]
    telemetry_s = layer_sum(totals, "telemetry")
    us_per_pkt = lambda layer: ratio(layer_sum(totals, layer) * 1e6, pkts)
    return {
        "simnet.self_us_per_pkt": us_per_pkt("simnet"),
        "simnet.events_per_pkt": ratio(c("sim_events"), pkts),
        "simnet.datagrams_per_pkt": ratio(c("datagrams"), pkts),
        "simnet.rxbuf_drops_per_pkt": ratio(c("rxbuf_drops"), pkts),
        "core.session.self_us_per_pkt": us_per_pkt("core.session"),
        "core.sender.self_us_per_pkt": us_per_pkt("core.sender"),
        "core.sender.calls_per_pkt": ratio(
            layer_sum(totals, "core.sender", 1), pkts),
        "core.bitmap.us_per_ack": ratio(
            layer_sum(totals, "core.bitmap") * 1e6, c("acks")),
        "core.receiver.self_us_per_datagram": ratio(
            layer_sum(totals, "core.receiver") * 1e6, on_data),
        "core.receiver.dup_share": ratio(c("dups"), on_data),
        "core.receiver.acks_per_pkt": ratio(c("acks_built"), pkts),
        "core.journal.us_per_pkt": us_per_pkt("core.journal"),
        "core.manifest.ms_per_mb": ratio(
            layer_sum(totals, "core.manifest") * 1e3, counts["mb"]),
        "runtime.wire.us_per_pkt": us_per_pkt("runtime.wire"),
        "sock.calls_per_pkt": ratio(layer_sum(totals, "sock.busy", 1)
                                    + layer_sum(totals, "sock.wait", 1), pkts),
        "sock.busy_us_per_pkt": us_per_pkt("sock.busy"),
        "sock.wait_us_per_pkt": us_per_pkt("sock.wait"),
        "server.loop_self_us_per_pkt": us_per_pkt("server"),
        "server.queued_ops": float(c("queued")),
        "server.cpu_ms_per_mb": c("server_cpu_ms_per_mb"),
        "client.self_us_per_pkt": us_per_pkt("client"),
        "client.cpu_ms_per_mb": c("client_cpu_ms_per_mb"),
        "telemetry.events_per_pkt": ratio(c("events"), pkts),
        "telemetry.us_per_event": ratio(telemetry_s * 1e6, c("events")),
        "telemetry.share": ratio(telemetry_s, windows),
        "bench.share": ratio(layer_sum(totals, "bench"), windows),
        "trace.overhead": counts["overhead"],
        "trace.coverage": ratio(sum(v[0] for v in totals.values()), windows),
    }
