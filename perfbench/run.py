"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {paper,stream,serve} --seed N \\
        --seconds S --trace {0,1} [--scale {full,tiny}]

Run from the root of a source checkout. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. Lines before it
carry the run's provenance and the workload's own figures (see
``README.md``). The exit code is 1 when an
output was wrong and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import common

# Each workload is the module of the same name.
WORKLOADS = tuple(w["name"] for w in common.BENCH["workloads"])
# name -> unit, for every end-to-end metric every workload reports.
END_TO_END = {m["name"]: m["unit"] for m in common.BENCH["end_to_end"]}

# The workload's own figures, printed before the result line; ``wall_s``
# is derived from them (see each module).
FIGURE_UNITS = {
    "seq_mbit_s": "Mbit/s", "par_mbit_s": "Mbit/s", "req_per_s": "req/s",
    "p50_ms": "ms", "p99_ms": "ms",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the harness self-tests")
    return parser.parse_args(argv)


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units if name in values}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        common.enter_checkout()
        workload = importlib.import_module(args.workload)
        import layers

        probe = [common.machine_probe_ms()]
        outcome = workload.run(args.seed, args.seconds, bool(args.trace),
                               args.scale == "tiny")
        probe.append(common.machine_probe_ms())
        outcome["notes"]["machine_probe_ms"] = probe
        print("provenance " + json.dumps(common.provenance(
            args.workload, args.seed, outcome["jobs"]), sort_keys=True))
        figures = outcome.get("figures", {})
        if figures:
            print("figures " + json.dumps(_with_units(figures, FIGURE_UNITS),
                                          sort_keys=True))
        print("notes " + json.dumps(outcome["notes"], sort_keys=True))
        units = layers.UNITS if args.trace else END_TO_END
        missing = set(units) - set(outcome["metrics"])
        if missing:
            raise common.BenchError(f"metrics not measured: {sorted(missing)}")
    except common.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        common.cleanup_work()
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": _with_units(outcome["metrics"], units),
    }, sort_keys=True), flush=True)
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
