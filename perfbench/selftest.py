"""Self-tests of the benchmark harness at tiny sizes (about a minute).

    python3 -m pytest perfbench/selftest.py -q

They check that ``BENCHMARK.json`` keeps to its own limits, that every
workload emits every end-to-end metric with its unit, that every traced
run emits every per-layer metric, and that the traced runs together
reach each per-layer row. The file is not named ``test_*.py`` so the
repository's own test run does not collect it.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys

import pytest

import common
import layers
import run

BENCH = common.BENCH
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
FIGURES = {"paper": set(), "stream": {"seq_mbit_s", "par_mbit_s"},
           "serve": {"req_per_s", "p50_ms", "p99_ms"}}


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=str(common.ROOT), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if body.startswith("{"):
            tagged[tag] = json.loads(body)
    return json.loads(lines[-1]), tagged


def test_benchmark_json_keeps_its_limits():
    assert list(BENCH) == ["command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"]
    for workload in BENCH["workloads"]:
        assert (common.BENCH_DIR / f"{workload['name']}.py").is_file()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, tagged = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    for name, unit in run.END_TO_END.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], float) and entry["value"] > 0
    figures = tagged.get("figures", {})
    assert set(figures) == FIGURES[workload]
    for name, entry in figures.items():
        assert entry["unit"] == run.FIGURE_UNITS[name] and entry["value"] > 0
    provenance = tagged["provenance"]
    assert {"commit", "python", "numpy", "nproc", "jobs", "seed"} <= set(provenance)
    assert provenance["seed"] == 5


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, tagged = _run(workload, 1)
    assert result["correct"] is True
    assert {n: e["unit"] for n, e in result["metrics"].items()} == layers.UNITS
    assert tagged["notes"]["spans"], "traced run recorded no spans"


def test_traced_runs_reach_every_layer():
    seen = set()
    for workload in run.WORKLOADS:
        _, tagged = _run(workload, 1)
        seen |= set(tagged["notes"]["spans"])
    for layer, spans in layers.LAYER_SPANS.items():
        reached = [s for s in spans if s in seen or (
            s.endswith("*") and any(n.startswith(s[:-1]) for n in seen))]
        assert reached, f"no traced workload produced a span for {layer}"
    # The pool records counters, not spans: the stream run must show
    # pooled calls that ran tasks in its workers.
    result, _ = _run("stream", 1)
    assert result["metrics"]["engine.pool.calls"]["value"] > 0
    assert result["metrics"]["engine.pool.tasks"]["value"] > 0


def test_quantiles_and_span_arithmetic():
    assert common.percentile([1, 2, 3, 4], 50) == 2
    assert common.percentile(list(range(1, 101)), 99) == 99
    assert common.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    spans = [
        {"name": "a", "t0": 0.0, "dur": 10.0, "parent": -1, "pid": 1, "args": {}},
        {"name": "b", "t0": 1.0, "dur": 4.0, "parent": 0, "pid": 1, "args": {}},
        {"name": "a", "t0": 2.0, "dur": 1.0, "parent": 1, "pid": 1, "args": {}},
    ]
    assert common.busy_seconds(spans, ["a"]) == 10.0
    # A harness span with one child in-process and one worker span in
    # another process: 10 s, covered over [1, 5] and [5, 8], so 3 s blind.
    trace = {"meta": {"origin_pid": 1}, "spans": [
        {"name": "bench.call", "t0": 0.0, "dur": 10.0, "parent": -1, "pid": 1, "args": {}},
        {"name": "engine.x", "t0": 1.0, "dur": 4.0, "parent": 0, "pid": 1, "args": {}},
        {"name": "engine.y", "t0": 5.0, "dur": 3.0, "parent": -1, "pid": 2, "args": {}},
    ]}
    assert layers.unattributed_share(trace) == 0.3
