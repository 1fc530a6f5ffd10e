"""Tests of the benchmark itself (not part of the repository's suite).

Run with ``python -m pytest perfbench/tests`` from the checkout root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

from common import ROOT, SRC, child_env  # noqa: E402

os.environ.update({k: v for k, v in child_env().items()
                   if k in ("PYTHONPATH", "REPRO_EVLOOP_CACHE")})
sys.path.insert(0, SRC)

import des  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from layertrace import LayerTracer, layer_sum  # noqa: E402


class _ThreadClock:
    """A virtual clock per thread, advanced explicitly."""

    def __init__(self):
        self._tls = threading.local()

    def __call__(self) -> float:
        return getattr(self._tls, "now", 0.0)

    def advance(self, dt: float) -> None:
        self._tls.now = self() + dt


def test_self_time_on_nested_tree_two_threads():
    clock = _ThreadClock()
    tracer = LayerTracer(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    leaf_t = tracer.wrap("c:leaf", leaf)

    def mid():
        clock.advance(2)
        leaf_t(3)
        leaf_t(3)

    mid_t = tracer.wrap("b:mid", mid)

    def outer():
        clock.advance(1)
        mid_t()
        clock.advance(1)
        leaf_t(3)

    outer_t = tracer.wrap("a:outer", outer)
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait(timeout=10)
        outer_t()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    totals = tracer.totals()
    # Per thread: outer 1+1 own, mid 2 own, leaf 3+3+3; both threads summed.
    assert totals["a:outer"] == [4.0, 2, 26.0]
    assert totals["b:mid"] == [4.0, 2, 16.0]
    assert totals["c:leaf"] == [18.0, 6, 18.0]
    assert layer_sum(totals, "c") == 18.0
    assert sum(v[0] for v in totals.values()) == totals["a:outer"][2]


def test_install_and_uninstall_restore_originals():
    from repro.core.bitmap import PacketBitmap
    from repro.runtime import files, wire

    merge = PacketBitmap.__dict__["merge"]
    encode = wire.encode_data
    tracer = LayerTracer()
    tracer.install()
    try:
        assert PacketBitmap.__dict__["merge"] is not merge
        assert wire.encode_data is not encode
        assert files.wire.encode_data is wire.encode_data
        assert "sendto" in vars(socket.socket)
        bitmap = PacketBitmap(8)
        assert bitmap.merge(np.ones(8, dtype=bool)) == 8
    finally:
        tracer.uninstall()
    assert PacketBitmap.__dict__["merge"] is merge
    assert wire.encode_data is encode
    assert "sendto" not in vars(socket.socket)
    assert tracer.totals()["core.bitmap:merge"][1] == 1


def test_same_seed_same_inputs_and_outputs(tmp_path):
    for workload in ("des_paper", "des_stress"):
        a = des.make_inputs(workload, 11)
        assert a == des.make_inputs(workload, 11)
        assert a != des.make_inputs(workload, 12)
    specs = [dataclasses.replace(s, nbytes=s.nbytes // 50)
             for s in des.make_inputs("des_stress", 11)]
    first = [des.run_transfer(s, str(tmp_path)) for s in specs]
    second = [des.run_transfer(s, str(tmp_path)) for s in specs]
    assert all(r.error is None for r in first + second)
    assert ([des.fingerprint(r.stats) for r in first]
            == [des.fingerprint(r.stats) for r in second])


def _declared(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def small_objects(monkeypatch):
    """Shrink every workload's objects so a run takes seconds."""
    monkeypatch.setattr(des, "PAPER_NBYTES", 400_000)
    monkeypatch.setattr(des, "STRESS_NBYTES", 320_000)
    monkeypatch.setattr(serve, "OBJECT_BYTES", 200 * 1024)


@pytest.mark.parametrize("workload", ["des_paper", "des_stress",
                                      "serve_mixed"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_declared(workload, trace, small_objects,
                                        capsys):
    status = run.main(["--workload", workload, "--seed", "5", "--seconds",
                       "1", "--trace", trace])
    out, err = capsys.readouterr()
    assert status == 0, err[-2000:]
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(line["metrics"]) == _declared(kind)
    if trace == "1":
        assert line["metrics"]["trace.coverage"]["value"] > 0.9


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".cache",
                                                  "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "des_paper", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
