"""Run the ``repro serve`` daemon with the benchmark's layer tracer.

Usage: ``python daemon_traced.py TRACE_OUT ROOT [serve options...]``

Installs the same wrappers the load process uses, calls the ``serve``
entry point, and after the daemon exits (SIGTERM drains it) writes the
per-layer totals and endpoint counters to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys

from layertrace import LayerTracer


def main(argv: list[str]) -> int:
    trace_out, serve_args = argv[0], argv[1:]
    tracer = LayerTracer()
    tracer.install()
    from repro.server import cli

    status = cli.main(["serve", *serve_args])
    tracer.uninstall()
    totals = tracer.totals()
    senders = [s.stats for s in tracer.instances.get("FobsSender", [])]
    receivers = [r.stats for r in tracer.instances.get("FobsReceiver", [])]
    servers = tracer.instances.get("ObjectServer", [])
    report = {
        "totals": totals,
        "wall": totals.get("server:serve_forever", [0.0, 0, 0.0])[2],
        "senders": {"acks_processed": sum(s.acks_processed for s in senders),
                    "packets_sent": sum(s.packets_sent for s in senders)},
        "receivers": {
            "packets_duplicate": sum(r.packets_duplicate for r in receivers),
            "acks_built": sum(r.acks_built for r in receivers)},
        "queued": sum(s.admission.counters.queued for s in servers),
    }
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
