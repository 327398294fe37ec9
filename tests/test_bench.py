"""Benchmark harness: pairing rules, determinism, CSV, aggregation."""

from __future__ import annotations

import concurrent.futures
import io
import random
from dataclasses import replace

import pytest

from conftest import random_standard_context
from implbase.bases import build_cdub, build_dbasis, build_dg
from implbase import bench
from implbase.bench import (
    ALGORITHMS,
    CSV_HEADER,
    METRIC_NAMES,
    TABLE_COMBOS,
    ComboReport,
    WorkloadSpec,
    default_combos,
    derive_seed,
    metric_value,
    normalize,
    ranking,
    read_reports_csv,
    run_bench,
    run_workload,
    size_ratio_report,
    write_reports_csv,
)
from implbase.closure import Metrics
from implbase.errors import ImplbaseError, InvalidCombo, MalformedReport, UniverseMismatch
from implbase.context import gen_synthetic
from implbase.sets import Basis, BasisKind, parse_basis, render_basis

SPEC = WorkloadSpec(queries=200, repetitions=2, seed=11)


def make_report(
    dataset: str,
    kind: BasisKind,
    algorithm: str,
    basis_size: int,
    deps: int = 0,
    time_ms: float = 0.0,
) -> ComboReport:
    return ComboReport(
        dataset=dataset,
        basis_kind=kind,
        algorithm=algorithm,
        universe_size=4,
        basis_size=basis_size,
        queries=10,
        repetitions=1,
        totals=Metrics(deps=deps, elapsed_ns=round(time_ms * 1e6)),
        query_digest="",
    )


# -- pairing rules ---------------------------------------------------------------


def test_combo_table_pairs_direct_with_direct():
    assert TABLE_COMBOS[BasisKind.CDUB] == ("classic-direct", "lin-direct", "wild-direct")
    assert TABLE_COMBOS[BasisKind.DBASIS] == ("classic-direct", "lin-direct", "wild-direct")
    assert TABLE_COMBOS[BasisKind.DG] == ("classic", "lin", "wild")
    assert len(default_combos()) == 9


def test_a_kind_the_table_does_not_pair_is_refused(ex51, monkeypatch):
    # a raw basis, alone or beside a cdub, would run nothing or be dropped
    cdub = build_cdub(ex51)
    raw = Basis(cdub.implications, BasisKind.RAW)
    spec = WorkloadSpec(queries=5, repetitions=1)

    def no_draw(*args):
        raise AssertionError("queries drawn for a workload that is refused")

    monkeypatch.setattr(bench, "_draw_queries", no_draw)
    for bases in ({BasisKind.RAW: raw}, {BasisKind.CDUB: cdub, BasisKind.RAW: raw}):
        with pytest.raises(InvalidCombo, match="pairs no algorithm with a raw basis"):
            run_workload(bases, spec)


def test_a_workload_runs_the_table_pairings_of_its_kinds(ex51):
    bases = {BasisKind.DG: build_dg(ex51), BasisKind.CDUB: build_cdub(ex51)}
    reports = run_workload(bases, WorkloadSpec(queries=5, repetitions=1))
    # table order, whatever the order of the mapping
    assert [(r.basis_kind.value, r.algorithm) for r in reports] == [
        ("cdub", "classic-direct"),
        ("cdub", "lin-direct"),
        ("cdub", "wild-direct"),
        ("dg", "classic"),
        ("dg", "lin"),
        ("dg", "wild"),
    ]


def test_mixed_universes_are_rejected(ex51, chain3):
    bases = {
        BasisKind.CDUB: build_cdub(ex51),
        BasisKind.DG: build_dg(chain3),
    }
    with pytest.raises(UniverseMismatch):
        run_workload(bases, WorkloadSpec(queries=5, repetitions=1))


# -- workload runs ----------------------------------------------------------------


def test_run_workload_default_combos(ex51):
    reports = run_workload(ex51, SPEC, dataset_id="ex51")
    assert [(r.basis_kind, r.algorithm) for r in reports] == list(default_combos())
    assert all(r.dataset == "ex51" for r in reports)
    assert all(r.queries == 200 and r.repetitions == 2 for r in reports)
    assert all(r.universe_size == 4 for r in reports)


def test_all_combos_share_the_query_stream(ex51):
    reports = run_workload(ex51, SPEC)
    digests = {r.query_digest for r in reports}
    assert len(digests) == 1
    assert len(next(iter(digests))) == 16


def test_counters_do_not_depend_on_repetitions(ex51):
    one = run_workload(ex51, WorkloadSpec(queries=100, repetitions=1, seed=3))
    three = run_workload(ex51, WorkloadSpec(queries=100, repetitions=3, seed=3))
    for a, b in zip(one, three):
        assert a.totals.counters() == b.totals.counters()


def test_workload_is_deterministic(ex51):
    a = run_workload(ex51, SPEC)
    b = run_workload(ex51, SPEC)
    for ra, rb in zip(a, b):
        assert ra.totals.counters() == rb.totals.counters()
        assert ra.query_digest == rb.query_digest
        assert ra.basis_size == rb.basis_size


def test_workload_accepts_prebuilt_bases(ex51, monkeypatch):
    bases = {
        BasisKind.CDUB: build_cdub(ex51),
        BasisKind.DBASIS: build_dbasis(ex51),
        BasisKind.DG: build_dg(ex51),
    }
    # read back one by one, each basis has its own, equal universe object
    read = {kind: parse_basis(render_basis(basis)) for kind, basis in bases.items()}
    own: list[bool] = []
    for algo, func in list(ALGORITHMS.items()):
        def seen(x, basis, func=func):
            own.append(x.universe is basis.universe)
            return func(x, basis)

        monkeypatch.setitem(ALGORITHMS, algo, seen)
    from_context = run_workload(ex51, SPEC)
    from_bases = run_workload(bases, SPEC)
    from_text = run_workload(read, SPEC)
    assert own and all(own)
    for a, b, c in zip(from_context, from_bases, from_text):
        assert a.totals.counters() == b.totals.counters() == c.totals.counters()
        assert a.query_digest == b.query_digest == c.query_digest


def test_query_density_extremes(ex51):
    empty = run_workload(ex51, WorkloadSpec(queries=50, repetitions=1, query_density=0.0))
    full = run_workload(ex51, WorkloadSpec(queries=50, repetitions=1, query_density=1.0))
    # closing the empty set never fires anything; closing the full set fires all
    dg_empty = next(r for r in empty if r.basis_kind is BasisKind.DG)
    dg_full = next(r for r in full if r.basis_kind is BasisKind.DG)
    assert dg_empty.totals.deps == 0
    assert dg_full.totals.deps == 50 * dg_full.basis_size


def test_workload_deps_laws(ex51):
    reports = {(r.basis_kind, r.algorithm): r for r in run_workload(ex51, SPEC)}
    dg = [reports[(BasisKind.DG, a)].totals.deps for a in ("classic", "lin", "wild")]
    assert dg[0] == dg[1] == dg[2]
    for kind in (BasisKind.CDUB, BasisKind.DBASIS):
        lin = reports[(kind, "lin-direct")].totals.deps
        wild = reports[(kind, "wild-direct")].totals.deps
        assert lin == wild


def test_run_bench_parallel_matches_serial():
    rng = random.Random(5)
    datasets = [
        (f"ctx{i}", random_standard_context(rng, 5, objects=12)) for i in range(3)
    ]
    spec = WorkloadSpec(queries=60, repetitions=1, seed=2)
    serial = run_bench(datasets, spec, jobs=1)
    parallel = run_bench(datasets, spec, jobs=2)
    assert len(serial) == len(parallel) == 27
    for a, b in zip(serial, parallel):
        assert (a.dataset, a.basis_kind, a.algorithm) == (b.dataset, b.basis_kind, b.algorithm)
        assert a.totals.counters() == b.totals.counters()
        assert a.query_digest == b.query_digest


def test_run_bench_starts_no_more_workers_than_datasets(monkeypatch):
    # a forking pool starts all of its workers on the first task, so the
    # pool is never asked for more workers than there are datasets
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return map(func, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    rng = random.Random(7)
    datasets = [(f"ctx{i}", random_standard_context(rng, 4, objects=8)) for i in range(3)]
    spec = WorkloadSpec(queries=20, repetitions=1, seed=3)
    pooled = run_bench(datasets, spec, jobs=8)
    assert sizes == [3]
    serial = run_bench(datasets, spec, jobs=1)
    assert sizes == [3]
    assert [r.totals.counters() for r in pooled] == [r.totals.counters() for r in serial]


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_bench_refuses_fewer_than_one_job(jobs):
    # one dataset runs serially whatever the job count, so only the check
    # itself can refuse it
    ctx = random_standard_context(random.Random(8), 4, objects=8)
    with pytest.raises(ValueError, match="at least one job"):
        run_bench([("a", ctx)], WorkloadSpec(queries=5, repetitions=1), jobs=jobs)


def test_per_dataset_seeds_are_order_independent():
    assert derive_seed(0, "alpha") == derive_seed(0, "alpha")
    assert derive_seed(0, "alpha") != derive_seed(0, "beta")
    assert derive_seed(0, "alpha") != derive_seed(1, "alpha")
    rng = random.Random(6)
    ctx = random_standard_context(rng, 5, objects=12)
    spec = WorkloadSpec(queries=40, repetitions=1, seed=9)
    one = run_bench([("x", ctx)], spec)
    swapped = run_bench([("y", ctx), ("x", ctx)], spec)
    mine = [r for r in swapped if r.dataset == "x"]
    for a, b in zip(one, mine):
        assert a.totals.counters() == b.totals.counters()


def test_workload_spec_defaults():
    spec = WorkloadSpec()
    assert spec.queries == 50_000
    assert spec.repetitions == 3
    assert spec.seed == 0
    assert spec.query_density == 0.5


@pytest.mark.parametrize(
    "sizes",
    [
        {"queries": -5},
        {"repetitions": 0},
        {"repetitions": -2},
        {"query_density": float("nan")},
        {"query_density": 1.5},
        {"query_density": float("inf")},
        {"query_density": -0.2},
    ],
)
def test_workload_spec_refuses_negative_sizes(sizes):
    with pytest.raises(ValueError):
        WorkloadSpec(**sizes)
    with pytest.raises(ValueError):
        replace(SPEC, **sizes)


def test_a_workload_of_no_queries_reports_zero_counters(ex51):
    reports = run_workload(ex51, WorkloadSpec(queries=0, repetitions=1))
    assert all(r.queries == 0 and r.totals.counters() == (0, 0, 0, 0) for r in reports)


# -- CSV -----------------------------------------------------------------------------


def test_csv_header_is_frozen():
    assert (
        CSV_HEADER
        == "dataset,universe,basis_kind,basis_size,algorithm,queries,reps,deps,attrib_ops,inner,outer,time_ms"
    )


def test_csv_round_trip(ex51):
    reports = run_workload(ex51, SPEC, dataset_id="ex51")
    buffer = io.StringIO()
    write_reports_csv(reports, buffer)
    text = buffer.getvalue()
    assert text.splitlines()[0] == CSV_HEADER
    again = read_reports_csv(io.StringIO(text))
    assert len(again) == len(reports)
    for a, b in zip(reports, again):
        assert a.dataset == b.dataset
        assert a.basis_kind == b.basis_kind
        assert a.algorithm == b.algorithm
        assert a.totals.counters() == b.totals.counters()
        assert abs(a.time_ms - b.time_ms) < 1e-5


def test_csv_is_stable_except_for_time(ex51, tmp_path):
    pa = tmp_path / "a.csv"
    pb = tmp_path / "b.csv"
    write_reports_csv(run_workload(ex51, SPEC), pa)
    write_reports_csv(run_workload(ex51, SPEC), pb)
    mask = lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
    assert mask(pa) == mask(pb)


def test_csv_rejects_unknown_header():
    with pytest.raises(ValueError):
        read_reports_csv(io.StringIO("nope,nope\n1,2\n"))


def test_csv_rejects_counts_that_are_not_ascii_digits(ex51):
    buffer = io.StringIO()
    write_reports_csv(run_workload(ex51, SPEC)[:1], buffer)
    header, row = buffer.getvalue().splitlines()
    cells = row.split(",")
    for column in ("universe", "basis_size", "queries", "reps", *METRIC_NAMES[:4]):
        index = header.split(",").index(column)
        for bad in ("\u0663", "1_0", "+3", "-1", " 3", ""):
            edited = ",".join(cells[:index] + [bad] + cells[index + 1 :])
            with pytest.raises(ValueError, match=f"CSV cell {column} "):
                read_reports_csv(io.StringIO(f"{header}\n{edited}\n"))


def test_csv_rejects_times_not_in_the_written_form(ex51):
    buffer = io.StringIO()
    write_reports_csv(run_workload(ex51, SPEC)[:1], buffer)
    header, row = buffer.getvalue().splitlines()
    stem = row.rsplit(",", 1)[0]
    for bad in (
        "inf", "1e400", "nan", "9" * 400 + ".0", "-5", "-5.0", "1_0", "1_0.0",
        "\u0663", "\u0663.0", "1.\u0663", ".5", "5.", "+1.0", " 1.0", "",
    ):
        with pytest.raises(ValueError, match="CSV cell time_ms "):
            read_reports_csv(io.StringIO(f"{header}\n{stem},{bad}\n"))
    for good, ns in (("1500", 1_500_000_000), ("0.000001", 1), ("2.5", 2_500_000)):
        (report,) = read_reports_csv(io.StringIO(f"{header}\n{stem},{good}\n"))
        assert report.totals.elapsed_ns == ns


def test_csv_refusals_are_malformed_reports(ex51):
    buffer = io.StringIO()
    write_reports_csv(run_workload(ex51, SPEC)[:1], buffer)
    header, row = buffer.getvalue().splitlines()
    names = header.split(",")

    def edited(column: str, cell: str) -> str:
        cells = row.split(",")
        cells[names.index(column)] = cell
        return f"{header}\n{','.join(cells)}\n"

    for text, message in (
        ("dataset,universe\n", "unexpected CSV header"),
        (f"{header}\n{row},1\n", "expected 12 CSV cells, found 13"),
        (edited("queries", "2x0"), "CSV cell queries "),
        (edited("time_ms", "nan"), "CSV cell time_ms "),
        (edited("basis_kind", "xdub"), "CSV cell basis_kind is not a kind: 'xdub'"),
        # pairings the bench never runs, which report would rank
        (edited("basis_kind", "dg"), "not a pairing the bench runs: 'dg', "),
        (edited("basis_kind", "raw"), "not a pairing the bench runs: 'raw', "),
        (edited("algorithm", "nosuch"), "not a pairing the bench runs: '[a-z]+', 'nosuch'"),
    ):
        with pytest.raises(MalformedReport, match=message) as caught:
            read_reports_csv(io.StringIO(text))
        assert isinstance(caught.value, ImplbaseError)
        assert isinstance(caught.value, ValueError)


def test_csv_refuses_a_repeated_pairing_row(ex51):
    # ranking would count the repeat as a second win, and size_ratio_report
    # would keep only its last copy
    other = gen_synthetic(16, 9, 0.3, 1)
    reports = run_workload(ex51, SPEC, dataset_id="ex51")
    reports += run_workload(other, SPEC, dataset_id="gen")
    buffer = io.StringIO()
    write_reports_csv(reports, buffer)
    text = buffer.getvalue()
    assert len(read_reports_csv(io.StringIO(text))) == 18
    (repeat,) = [
        line
        for line in text.splitlines()
        if line.startswith("ex51,") and ",dbasis," in line and ",lin-direct," in line
    ]
    with pytest.raises(
        MalformedReport, match="repeats the row of dataset 'ex51', pairing dbasis:lin-direct"
    ):
        read_reports_csv(io.StringIO(f"{text}{repeat}\n"))
    # the same pairing under another dataset name is no repeat
    copied = read_reports_csv(io.StringIO(f"{text}copy{repeat[4:]}\n"))
    assert [r.dataset for r in copied[-2:]] == ["gen", "copy"]


# -- aggregation ------------------------------------------------------------------------


def test_normalize_affine_rescale():
    def column(*deps: int) -> list[ComboReport]:
        return [
            make_report(f"d{i}", BasisKind.DG, "classic", 4, deps=d) for i, d in enumerate(deps)
        ]

    assert normalize(column(20, 10, 30), "deps") == [50.0, 0.0, 100.0]
    assert normalize(column(5, 5, 5), "deps") == [0.0, 0.0, 0.0]
    assert normalize([], "deps") == []


def test_metric_value_names(ex51):
    report = run_workload(ex51, SPEC)[0]
    for name in METRIC_NAMES:
        assert metric_value(report, name) >= 0
    with pytest.raises(ValueError):
        metric_value(report, "speed")


def test_ranking_counts_wins_and_credits_ties():
    reports = [
        make_report("d1", BasisKind.DG, "classic", 4, deps=5, time_ms=2.0),
        make_report("d1", BasisKind.CDUB, "wild-direct", 9, deps=7, time_ms=1.0),
        make_report("d2", BasisKind.DG, "classic", 4, deps=3, time_ms=4.0),
        make_report("d2", BasisKind.CDUB, "wild-direct", 9, deps=3, time_ms=5.0),
    ]
    table = ranking(reports, metrics=("deps", "time_ms"))
    assert table["deps"] == {"dg:classic": 2, "cdub:wild-direct": 1}
    assert table["time_ms"] == {"dg:classic": 1, "cdub:wild-direct": 1}


def test_size_ratio_buckets_use_integer_boundaries():
    reports = []
    for name, cdub_size, dg_size, t_dg, t_cdub in [
        ("d1", 923, 386, 1.0, 2.0),  # ratio 2.391..., bucket 2.4
        ("d2", 13, 10, 3.0, 1.0),  # ratio exactly 1.3 stays in bucket 1.3
        ("d3", 14, 10, 1.0, 1.0),  # tie credits both
    ]:
        reports.append(
            make_report(name, BasisKind.DG, "classic", dg_size, time_ms=t_dg)
        )
        reports.append(
            make_report(name, BasisKind.CDUB, "wild-direct", cdub_size, time_ms=t_cdub)
        )
    rows = {row.bucket: row for row in size_ratio_report(reports)}
    assert set(rows) == {2.4, 1.3, 1.4}
    assert rows[2.4].wins_a == 1 and rows[2.4].wins_b == 0
    assert rows[1.3].wins_a == 0 and rows[1.3].wins_b == 1
    assert rows[1.4].wins_a == 1 and rows[1.4].wins_b == 1


def test_size_ratio_skips_incomplete_datasets():
    reports = [make_report("lonely", BasisKind.DG, "classic", 4, time_ms=1.0)]
    assert size_ratio_report(reports) == []
