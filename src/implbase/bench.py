"""Deterministic closure benchmarks over basis/algorithm combinations.

A workload draws a seeded sequence of random query sets and replays the
*same* sequence against every combination it runs, so comparisons are
paired.  Counters are summed per repetition and must agree bit for bit
across repetitions (the algorithms are deterministic); only wall time is
averaged.  The combinations are those of :data:`TABLE_COMBOS`, the one
pairing table: single-round algorithms run against the ``cdub`` and
``dbasis`` kinds, iterate-until-stable algorithms against ``dg``.

Reports serialise to CSV with a fixed header; given the same inputs and
seed, two runs differ at most in the ``time_ms`` column.
"""

from __future__ import annotations

import csv
import hashlib
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random
from typing import ContextManager, Iterable, Mapping, Sequence, TextIO

from .bases import BUILDERS
from .bits import random_bits
from .closure import ALGORITHMS, Metrics
from .context import Context
from .errors import InvalidCombo, MalformedReport, UniverseMismatch
from .sets import AttributeSet, Basis, BasisKind, Universe, _is_decimal

__all__ = [
    "TABLE_COMBOS",
    "METRIC_NAMES",
    "CSV_HEADER",
    "WorkloadSpec",
    "ComboReport",
    "RatioBucket",
    "default_combos",
    "derive_seed",
    "run_workload",
    "run_bench",
    "combo_label",
    "metric_value",
    "normalize",
    "ranking",
    "RATIO_COMBOS",
    "RATIO_METRIC",
    "size_ratio_report",
    "write_reports_csv",
    "read_reports_csv",
]

#: Supported pairings: direct algorithms with the direct bases, classic with dg.
TABLE_COMBOS: dict[BasisKind, tuple[str, ...]] = {
    BasisKind.CDUB: ("classic-direct", "lin-direct", "wild-direct"),
    BasisKind.DBASIS: ("classic-direct", "lin-direct", "wild-direct"),
    BasisKind.DG: ("classic", "lin", "wild"),
}

#: The four counters in ``Metrics.counters()`` order, then the wall time.
METRIC_NAMES = ("deps", "attrib_ops", "inner", "outer", "time_ms")

CSV_HEADER = ",".join(
    ("dataset", "universe", "basis_kind", "basis_size", "algorithm", "queries", "reps")
    + METRIC_NAMES
)


def default_combos() -> tuple[tuple[BasisKind, str], ...]:
    """Every pairing of :data:`TABLE_COMBOS`, in table order."""
    return tuple((kind, algo) for kind, algos in TABLE_COMBOS.items() for algo in algos)


@dataclass(frozen=True)
class WorkloadSpec:
    """How to run the pairings: query count, repetitions, seed, query density."""

    queries: int = 50_000
    repetitions: int = 3
    seed: int = 0
    query_density: float = 0.5

    def __post_init__(self) -> None:
        if self.queries < 0:
            raise ValueError("the query count must not be negative")
        if self.repetitions < 1:
            raise ValueError("at least one repetition is required")
        if not 0.0 <= self.query_density <= 1.0:
            raise ValueError("the query density must lie between 0 and 1")


@dataclass(frozen=True)
class ComboReport:
    """Summed metrics of one basis/algorithm combination over one dataset."""

    dataset: str
    basis_kind: BasisKind
    algorithm: str
    universe_size: int
    basis_size: int
    queries: int
    repetitions: int
    totals: Metrics
    query_digest: str

    @property
    def time_ms(self) -> float:
        return self.totals.elapsed_ns / 1e6


def combo_label(report: ComboReport) -> str:
    return f"{report.basis_kind.value}:{report.algorithm}"


def metric_value(report: ComboReport, metric: str) -> float:
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}")
    return (*report.totals.counters(), report.time_ms)[METRIC_NAMES.index(metric)]


def derive_seed(seed: int, dataset: str) -> int:
    """Stable per-dataset seed, independent of dataset order."""
    digest = hashlib.sha256(f"{seed}:{dataset}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _draw_queries(
    universe: Universe, count: int, density: float, seed: int
) -> tuple[list[AttributeSet], str]:
    """The seeded query sequence and its digest.

    Each attribute of each query is an independent Bernoulli(density) draw;
    the digest identifies the exact sequence so paired replay is checkable.
    """
    rng = Random(seed)
    n = universe.size
    nbytes = (n + 7) // 8
    hasher = hashlib.sha256()
    queries: list[AttributeSet] = []
    for _ in range(count):
        bits = rng.getrandbits(n) if density == 0.5 else random_bits(rng, n, density)
        hasher.update(bits.to_bytes(nbytes, "big"))
        queries.append(AttributeSet(universe, bits))
    return queries, hasher.hexdigest()[:16]


def _bases_from(source: Context | Mapping[BasisKind, Basis]) -> dict[BasisKind, Basis]:
    if isinstance(source, Context):
        return {kind: build(source) for kind, build in BUILDERS.items()}
    return {BasisKind(kind): basis for kind, basis in source.items()}


def run_workload(
    source: Context | Mapping[BasisKind, Basis],
    spec: WorkloadSpec,
    dataset_id: str = "dataset",
) -> list[ComboReport]:
    """Run every :data:`TABLE_COMBOS` pairing of the given kinds, in table
    order, over the same seeded query sequence.

    ``source`` is either a standard context (all three bases are then built
    here, outside any measurement) or a ready mapping of kind to basis.  A
    kind the table pairs with no algorithm raises :class:`InvalidCombo`
    before any query is drawn.  Counters must agree across repetitions; a
    mismatch would mean a non-deterministic algorithm and raises
    ``RuntimeError``.
    """
    bases = _bases_from(source)
    for kind in bases:
        if kind not in TABLE_COMBOS:
            raise InvalidCombo(
                f"the bench pairs no algorithm with a {kind.value} basis; "
                f"it pairs {', '.join(k.value for k in TABLE_COMBOS)}"
            )
    combos = [combo for combo in default_combos() if combo[0] in bases]
    universes = {basis.universe for basis in bases.values()}
    if len(universes) > 1:
        raise UniverseMismatch("bases of one workload must share a universe")
    if not universes:
        raise InvalidCombo("a workload needs at least one basis")
    (universe,) = universes
    queries, digest = _draw_queries(universe, spec.queries, spec.query_density, spec.seed)
    reports: list[ComboReport] = []
    for kind, algo in combos:
        basis = bases[kind]
        func = ALGORITHMS[algo]
        # the basis's own universe object, so each call's check is one `is`
        own = basis.universe
        asked = queries if own is universe else [AttributeSet(own, q.bits) for q in queries]
        reference: tuple[int, int, int, int] | None = None
        elapsed_total = 0
        for _ in range(spec.repetitions):
            deps = ops = inner = outer = 0
            for query in asked:
                m = func(query, basis).metrics
                deps += m.deps
                ops += m.attribute_ops
                inner += m.inner_loops
                outer += m.outer_loops
                elapsed_total += m.elapsed_ns
            if reference is None:
                reference = (deps, ops, inner, outer)
            elif (deps, ops, inner, outer) != reference:
                raise RuntimeError(
                    f"counters changed between repetitions for {kind.value}:{algo}"
                )
        assert reference is not None
        summed = Metrics(*reference, elapsed_ns=round(elapsed_total / spec.repetitions))
        reports.append(
            ComboReport(
                dataset=dataset_id,
                basis_kind=kind,
                algorithm=algo,
                universe_size=universe.size,
                basis_size=len(basis),
                queries=spec.queries,
                repetitions=spec.repetitions,
                totals=summed,
                query_digest=digest,
            )
        )
    return reports


def _bench_dataset(task: tuple[str, Context, WorkloadSpec]) -> list[ComboReport]:
    name, ctx, spec = task
    per_dataset = replace(spec, seed=derive_seed(spec.seed, name))
    return run_workload(ctx, per_dataset, dataset_id=name)


def run_bench(
    datasets: Sequence[tuple[str, Context]],
    spec: WorkloadSpec,
    jobs: int = 1,
) -> list[ComboReport]:
    """Run the workload over many datasets, optionally on a process pool.

    Each dataset derives its own query seed from its name, so results do not
    depend on scheduling; parallel and serial runs produce identical
    counters.  The pool has at most one worker per dataset, because a
    forking pool starts all of its workers on the first task.
    """
    if jobs < 1:
        raise ValueError("at least one job is required")
    tasks = [(name, ctx, spec) for name, ctx in datasets]
    if jobs == 1 or len(tasks) <= 1:
        nested = [_bench_dataset(task) for task in tasks]
    else:
        # imported here so that no other command pays for loading the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            nested = list(pool.map(_bench_dataset, tasks))
    return [report for group in nested for report in group]


# -- CSV ----------------------------------------------------------------------


def _opened(target: str | Path | TextIO, mode: str) -> ContextManager[TextIO]:
    """The file at the path, closed on exit, or the handle itself, left open."""
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8", newline="")
    return nullcontext(target)


def write_reports_csv(reports: Iterable[ComboReport], target: str | Path | TextIO) -> None:
    """Fixed-header CSV; equal inputs and seed give byte-equal files except
    for the time column."""
    with _opened(target, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in reports:
            writer.writerow(
                [
                    r.dataset,
                    r.universe_size,
                    r.basis_kind.value,
                    r.basis_size,
                    r.algorithm,
                    r.queries,
                    r.repetitions,
                    *r.totals.counters(),
                    f"{r.time_ms:.6f}",
                ]
            )


#: The CSV columns that do not hold a count in ASCII digits.
_NON_COUNT_COLUMNS = ("dataset", "basis_kind", "algorithm", "time_ms")


def _time_ns(cell: str) -> int:
    """A ``time_ms`` cell as whole nanoseconds.  It must be ASCII digits with
    an optional ASCII fraction: the writer's ``digits.digits``, or a bare
    count put in its place; anything else raises :class:`MalformedReport`."""
    whole, dot, frac = cell.partition(".")
    if _is_decimal(whole) and (not dot or _is_decimal(frac)):
        ns = float(cell) * 1e6
        if math.isfinite(ns):
            return round(ns)
    raise MalformedReport(f"CSV cell time_ms is not a decimal time: {cell!r}")


def read_reports_csv(source: str | Path | TextIO) -> list[ComboReport]:
    header = CSV_HEADER.split(",")
    with _opened(source, "r") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != header:
            raise MalformedReport("unexpected CSV header")
        reports = []
        seen: set[tuple[str, BasisKind, str]] = set()
        for row in reader:
            if len(row) != len(header):
                raise MalformedReport(f"expected {len(header)} CSV cells, found {len(row)}")
            for name, cell in zip(header, row):
                if name not in _NON_COUNT_COLUMNS and not _is_decimal(cell):
                    raise MalformedReport(f"CSV cell {name} is not a decimal count: {cell!r}")
            (dataset, universe_size, kind, basis_size, algorithm, queries, reps,
             *counters, time_ms) = row
            try:
                basis_kind = BasisKind(kind)
            except ValueError:
                raise MalformedReport(f"CSV cell basis_kind is not a kind: {kind!r}") from None
            if algorithm not in TABLE_COMBOS.get(basis_kind, ()):
                raise MalformedReport(
                    f"CSV cells basis_kind and algorithm are not a pairing the bench runs: "
                    f"{kind!r}, {algorithm!r}"
                )
            key = (dataset, basis_kind, algorithm)
            if key in seen:
                raise MalformedReport(
                    f"CSV repeats the row of dataset {dataset!r}, pairing {kind}:{algorithm}"
                )
            seen.add(key)
            totals = Metrics(*map(int, counters), elapsed_ns=_time_ns(time_ms))
            reports.append(
                ComboReport(
                    dataset=dataset,
                    basis_kind=basis_kind,
                    algorithm=algorithm,
                    universe_size=int(universe_size),
                    basis_size=int(basis_size),
                    queries=int(queries),
                    repetitions=int(reps),
                    totals=totals,
                    query_digest="",
                )
            )
        return reports


# -- aggregation --------------------------------------------------------------


def normalize(reports: Sequence[ComboReport], metric: str) -> list[float]:
    """One metric of the given reports, affinely rescaled onto [0, 100] in
    report order: the least value maps to 0 and the greatest to 100.  An
    all-equal column maps to all zeros, and no reports to an empty list."""
    values = [metric_value(r, metric) for r in reports]
    if not values:
        return []
    low = min(values)
    high = max(values)
    if math.isclose(low, high):
        return [0.0 for _ in values]
    span = high - low
    return [100.0 * (v - low) / span for v in values]


def _by_dataset(reports: Iterable[ComboReport]) -> dict[str, list[ComboReport]]:
    groups: dict[str, list[ComboReport]] = {}
    for report in reports:
        groups.setdefault(report.dataset, []).append(report)
    return groups


def ranking(
    reports: Sequence[ComboReport],
    metrics: Sequence[str] = METRIC_NAMES,
) -> dict[str, dict[str, int]]:
    """Win counts per metric and combination across datasets.

    For every dataset and metric, each combination achieving the dataset
    minimum scores one win; ties credit every minimiser.
    """
    labels = dict.fromkeys(combo_label(report) for report in reports)
    table: dict[str, dict[str, int]] = {metric: dict.fromkeys(labels, 0) for metric in metrics}
    groups = _by_dataset(reports)
    for metric in metrics:
        for group in groups.values():
            best = min(metric_value(r, metric) for r in group)
            for r in group:
                if metric_value(r, metric) == best:
                    table[metric][combo_label(r)] += 1
    return table


@dataclass(frozen=True)
class RatioBucket:
    """Head-to-head outcome for datasets whose size ratio falls in one bucket."""

    bucket: float
    datasets: int
    wins_a: int
    wins_b: int


#: The head-to-head combinations of :func:`size_ratio_report`, ``a`` then ``b``,
RATIO_COMBOS: tuple[tuple[BasisKind, str], tuple[BasisKind, str]] = (
    (BasisKind.DG, "classic"),
    (BasisKind.CDUB, "wild-direct"),
)
#: and the metric they compete on.
RATIO_METRIC = "time_ms"


def size_ratio_report(reports: Sequence[ComboReport]) -> list[RatioBucket]:
    """Bucket datasets by ``|cdub| / |dg|`` in steps of one tenth and count,
    per bucket, how often each of the :data:`RATIO_COMBOS` wins the
    :data:`RATIO_METRIC`.

    Bucket ``x`` covers ratios in ``(x - 0.1, x]``; the boundary is computed
    in integer arithmetic, so 2.39... lands in 2.4 and exactly 1.3 in 1.3.
    Ties credit both sides.  Datasets missing either combination or either
    size are skipped.
    """
    combo_a, combo_b = RATIO_COMBOS
    buckets: dict[int, list[int]] = {}
    for _, group in sorted(_by_dataset(reports).items()):
        combos = {(r.basis_kind, r.algorithm): r for r in group}
        sizes = {r.basis_kind: r.basis_size for r in group}
        size_cdub = sizes.get(BasisKind.CDUB)
        size_dg = sizes.get(BasisKind.DG)
        a = combos.get(combo_a)
        b = combos.get(combo_b)
        if not size_cdub or not size_dg or a is None or b is None:
            continue
        tenths = -(-10 * size_cdub // size_dg)
        entry = buckets.setdefault(tenths, [0, 0, 0])
        entry[0] += 1
        va = metric_value(a, RATIO_METRIC)
        vb = metric_value(b, RATIO_METRIC)
        if va <= vb:
            entry[1] += 1
        if vb <= va:
            entry[2] += 1
    return [
        RatioBucket(bucket=tenths / 10, datasets=n, wins_a=wa, wins_b=wb)
        for tenths, (n, wa, wb) in sorted(buckets.items())
    ]
