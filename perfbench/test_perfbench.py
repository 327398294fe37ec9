"""Tests of the benchmark itself: generator, metric names, smoke runs.

Run with ``python -m pytest perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from implbase.context import is_standard

from perfbench.hierarchy import gen_hierarchy
from perfbench.workloads import END_TO_END, PAIRINGS, PER_LAYER, Corpus, execute, label

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "build": Corpus(shape=(12, 8, 0.3), target=40, limit=3, setups=2),
    "query": Corpus(shape=(20, 12, 0.2), target=60, limit=4, setups=2, queries=8),
    "oneshot": Corpus(shape=(20, 12, 0.2), target=60, limit=4, setups=2, queries=2),
}


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_hierarchy_is_deterministic_and_standard(seed):
    ctx = gen_hierarchy(30, 16, 0.2, seed)
    assert ctx == gen_hierarchy(30, 16, 0.2, seed)
    assert is_standard(ctx)
    assert ctx != gen_hierarchy(30, 16, 0.2, seed + 100)


def test_hierarchy_plants_binary_implications():
    ctx = gen_hierarchy(30, 16, 0.2, 5)
    columns = ctx.column_bits()
    nested = sum(
        1
        for a, ca in enumerate(columns)
        for b, cb in enumerate(columns)
        if a != b and ca & cb == ca
    )
    assert nested > 0


def test_metric_names_and_units_follow_the_contract():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_reports_every_metric_without_failures(workload):
    plain = execute(workload, 3, 0.01, False, TINY[workload])
    assert plain.checks.attempted > 0 and plain.checks.failed == 0, plain.checks.messages
    assert set(plain.e2e) == set(END_TO_END)
    assert all(value > 0 for value in plain.e2e.values())

    traced = execute(workload, 3, 0.01, True, TINY[workload])
    assert traced.checks.failed == 0, traced.checks.messages
    assert set(traced.layers) == set(PER_LAYER)
    assert traced.layers["fail_ratio"] == 0
    assert traced.layers["trace.overhead_ratio"] > 0
    spans = traced.tracer.spans
    assert spans and all(s["end_ns"] >= s["start_ns"] for s in spans)
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    layers = {s["name"].split(".")[0] for s in spans}
    assert {"context", "bases"} <= layers
    if workload != "build":
        assert {"closure", "sets" if workload == "oneshot" else "bench"} <= layers


@pytest.mark.parametrize("workload", ["query", "oneshot"])
def test_counters_repeat_exactly_for_one_seed(workload):
    first = execute(workload, 4, 0.01, True, TINY[workload])
    second = execute(workload, 4, 0.01, True, TINY[workload])
    counters = [
        name
        for name, unit in PER_LAYER.items()
        if unit == "count"
    ]
    assert [first.layers[n] for n in counters] == [second.layers[n] for n in counters]
    assert any(first.layers[f"closure.{label(*p)}.inner"] > 0 for p in PAIRINGS)
    assert first.provenance["query_digests"] == second.provenance["query_digests"]
