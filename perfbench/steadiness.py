"""Steadiness evidence: repeat the benchmark and summarise the spread.

    # k untraced runs of one workload at run_seconds, one seed each,
    # appended to a JSONL file
    python3 perfbench/steadiness.py collect --workload stream \\
        --seeds 1-10 --out runs-a.jsonl

    # per metric: median, quartiles, IQR/median; with two files also the
    # gap between the two sets' medians, checked against BENCHMARK.json
    python3 perfbench/steadiness.py report runs-a.jsonl [runs-b.jsonl]

Quartiles are ``statistics.quantiles(values, n=4)``. A metric passes when
its IQR/median is below a third of its bound (``setup_s`` is exempt from
the spread rule) and, with two sets, when the second median is not worse
than the first by more than the bound. The workload figures printed
before the result line (``seq_mbit_s``, ``req_per_s``, ...) are reported
too, without a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import common


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args) -> int:
    bench = common.BENCH
    with open(args.out, "a") as out:
        for seed in _seeds(args.seeds):
            argv = [*bench["command"], "--workload", args.workload,
                    "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                    "--trace", "0"]
            started = time.perf_counter()
            proc = subprocess.run(argv, cwd=str(common.ROOT), capture_output=True,
                                  text=True, timeout=600)
            record = {"workload": args.workload, "seed": seed,
                      "exit": proc.returncode,
                      "elapsed_s": time.perf_counter() - started}
            for line in proc.stdout.splitlines():
                for tag in ("provenance", "figures", "notes"):
                    if line.startswith(tag + " "):
                        record[tag] = json.loads(line[len(tag) + 1:])
            lines = proc.stdout.strip().splitlines()
            record["result"] = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0:
                record["stderr"] = proc.stderr[-2000:]
            out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
            print(f"{args.workload} seed={seed} exit={proc.returncode} "
                  f"{record['elapsed_s']:.1f}s", flush=True)
    return 0


def _load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _values(records):
    """workload -> metric -> (unit, [values]) over successful runs."""
    table = {}
    for rec in records:
        if rec["exit"] != 0 or not rec.get("result"):
            continue
        metrics = dict(rec["result"]["metrics"])
        metrics.update(rec.get("figures", {}))
        for name, entry in metrics.items():
            unit, values = table.setdefault(rec["workload"], {}).setdefault(
                name, (entry["unit"], []))
            values.append(entry["value"])
    return table


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def _worse(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return -change if better == "higher" else change


def report(args) -> int:
    bounds = {m["name"]: m for m in common.BENCH["end_to_end"]}
    sets = [_values(_load(path)) for path in args.files]
    ok = True
    for workload in sorted(sets[0]):
        print(f"== {workload}")
        header = f"{'metric':<14} {'unit':<7} {'n':>3} {'median':>11} " \
                 f"{'q1':>11} {'q3':>11} {'iqr/med':>8}"
        if len(sets) == 2:
            header += f" {'median2':>11} {'iqr2/med':>8} {'worse':>7}"
        print(header + "  bound  verdict")
        for name, (unit, values) in sorted(sets[0][workload].items()):
            med, q1, q3, spread = _summary(values)
            line = (f"{name:<14} {unit:<7} {len(values):>3} {med:>11.5g} "
                    f"{q1:>11.5g} {q3:>11.5g} {spread:>8.3f}")
            bound = bounds.get(name)
            verdicts = []
            if bound and name != "setup_s" and spread >= bound["bound"] / 3:
                verdicts.append("spread")
            if len(sets) == 2:
                _, values2 = sets[1].get(workload, {}).get(name, (unit, []))
                if len(values2) >= 2:
                    med2, _, _, spread2 = _summary(values2)
                    worse = _worse(med, med2, bound["better"] if bound else "lower")
                    line += f" {med2:>11.5g} {spread2:>8.3f} {worse:>7.3f}"
                    if bound and name != "setup_s" and spread2 >= bound["bound"] / 3:
                        verdicts.append("spread2")
                    if bound and worse > bound["bound"]:
                        verdicts.append("gap")
            if bound:
                line += f"  {bound['bound']:.2f}  " + (",".join(verdicts) or "ok")
                ok = ok and not verdicts
            print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    c.add_argument("--out", required=True)
    r = sub.add_parser("report")
    r.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
