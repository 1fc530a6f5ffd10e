"""Shared helpers: paths, child-process environment, statistics, host stamp."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Compiled C event loop, kept between runs (built on the first run).
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
#: Per-run scratch files; each run removes its own directory.
WORK_DIR = os.path.join(BENCH_DIR, ".work")
#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5


def child_env() -> dict:
    """Environment for this process and its children: the tree's
    sources on the path and the event-loop build cache in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_EVLOOP_CACHE"] = os.path.join(CACHE_DIR, "evloop")
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: Sequence[float]) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    out = {"n": n, "p50": median(values)}
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0):
        beyond = n * (100.0 - p) / 100.0
        if beyond >= 10:
            idx = min(n - 1, int(math.ceil(n * p / 100.0)) - 1)
            out[f"p{p:g}"] = ordered[idx]
            out[f"p{p:g}_beyond"] = int(beyond)
            break
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_state() -> tuple[Optional[str], Optional[bool]]:
    """Commit and dirty flag, only when the checkout is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, env=env).stdout.strip() or None
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10, env=env).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def host_stamp() -> dict:
    """Where a run happened: CPU, cores, interpreter, engine, commit."""
    from repro.simnet import engine

    commit, dirty = _git_state()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "c_event_loop": engine._evloop is not None,
        "repro_pure_python": bool(os.environ.get("REPRO_PURE_PYTHON")),
        "git_commit": commit,
        "git_dirty": dirty,
        "unix_time": time.time(),
    }


def log(message: str) -> None:
    """Progress and tables go to stderr; stdout ends with the result."""
    print(message, file=sys.stderr, flush=True)
