"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload des_paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` runs untraced and traced passes and reports
the per-layer metrics (see perfbench/README.md).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The metric names and units are the ones
declared in BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import ROOT, SRC, child_env, host_stamp, log

WORKLOADS = ("des_paper", "des_stress", "serve_mixed")


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def run_workload(args) -> dict:
    if args.workload == "serve_mixed":
        import serve
        return serve.run(args.seed, args.seconds, bool(args.trace))
    import des
    return des.run(args.workload, args.seed, args.seconds, bool(args.trace))


def result_line(out: dict, declared: dict, trace: bool) -> dict:
    """The final JSON object, with exactly the declared metric names."""
    if trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        values = out["layers"]
        metrics = {k: {"value": float(values[k]), "unit": units[k]}
                   for k in units}
    else:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        metrics = {}
        for name, unit in units.items():
            value, measured_unit = out["metrics"][name]
            if measured_unit != unit:
                raise ValueError(f"{name}: measured in {measured_unit}, "
                                 f"declared {unit}")
            metrics[name] = {"value": float(value), "unit": unit}
    produced = set(out["layers"] if trace else out["metrics"])
    if produced != set(units):
        raise ValueError(f"metrics {sorted(produced ^ set(units))} are not "
                         f"both measured and declared")
    return {"correct": out["failed"] == 0 and not out["errors"],
            "attempted": int(out["attempted"]), "failed": int(out["failed"]),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"no program sources at {SRC}: nothing to benchmark")
        return 2
    # The program and every child see the tree's sources and keep the
    # C event loop's build inside the checkout.
    env = child_env()
    os.environ["PYTHONPATH"] = env["PYTHONPATH"]
    os.environ["REPRO_EVLOOP_CACHE"] = env["REPRO_EVLOOP_CACHE"]
    sys.path.insert(0, SRC)

    declared = _declared()
    out = run_workload(args)
    line = result_line(out, declared, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_stamp(),
              "error_rate": out["failed"] / max(out["attempted"], 1),
              "errors": out["errors"][:20], "detail": out["detail"]}
    for name, m in line["metrics"].items():
        print(f"{args.workload:12s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print("record " + json.dumps(record, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
