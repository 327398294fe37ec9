"""The three workloads of the layered benchmark.

Every workload runs in one process and one thread as a closed loop: one
caller, and each call starts when the previous one returned.  Inputs come
from the workload seed only.  Set-up runs several rounds and reports their
median.  Timed passes repeat the same work until the time budget is spent,
and each call keeps its best time over passes.  End-to-end times are scaled
to the reference speed of ``reference.py``.  With tracing on, untraced and
traced passes alternate: end-to-end numbers come from the untraced ones,
per-layer numbers from the spans of the traced ones.

* ``build``   - the ``implbase check`` path over uniform contexts: parse,
  three builders, ``check_equiv`` on every pair, ``direct_witness`` on
  every basis.  No closure-algorithm calls.
* ``query``   - the ``implbase bench`` path: ``run_workload`` with all nine
  pairings at two query densities on bases built during set-up.
* ``oneshot`` - the ``implbase closure``/``implies`` path: parse one basis
  from ``.imp`` text, index it, answer a few queries, drop it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

from implbase import bench as bench_mod
from implbase import cli
from implbase.bases import build_cdub, build_dbasis, build_dg, check_equiv, direct_witness
from implbase.bench import (
    ALGORITHMS,
    TABLE_COMBOS,
    WorkloadSpec,
    default_combos,
    derive_seed,
    run_workload,
)
from implbase.closure import implies
from implbase.context import Context, gen_synthetic, parse_cxt, render_cxt
from implbase.errors import DegenerateContext
from implbase.sets import (
    AttributeSet,
    Basis,
    BasisKind,
    Implication,
    Universe,
    parse_basis,
    render_basis,
    unit_expand,
)

from .hierarchy import gen_hierarchy
from .reference import Reference
from .tracing import Tracer

KINDS = (BasisKind.CDUB, BasisKind.DBASIS, BasisKind.DG)
BUILDERS = {BasisKind.CDUB: build_cdub, BasisKind.DBASIS: build_dbasis, BasisKind.DG: build_dg}
PAIRINGS = default_combos()
QUERY_DENSITIES = (0.5, 0.15)


def label(kind: BasisKind, algo: str) -> str:
    return f"{kind.value}.{algo}"


END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "context.gen_s": "s",
    "context.parse_cxt_s": "s",
    "context.objects": "count",
    "context.attributes": "count",
    "bases.build_cdub_s": "s",
    "bases.build_dbasis_s": "s",
    "bases.build_dg_s": "s",
    "bases.check_equiv_s": "s",
    "bases.direct_witness_s": "s",
    "bases.cdub_size": "count",
    "bases.cdub_units": "count",
    "bases.dbasis_size": "count",
    "bases.dbasis_sigma0": "count",
    "bases.dg_size": "count",
    "sets.parse_basis_s": "s",
    "sets.index_s": "s",
    "sets.render_basis_s": "s",
    **{
        f"closure.{label(kind, algo)}.{field}": unit
        for kind, algo in PAIRINGS
        for field, unit in (
            ("kernel_ms", "ms"),
            ("call_ms", "ms"),
            ("deps", "count"),
            ("attrib_ops", "count"),
            ("inner", "count"),
            ("outer", "count"),
            ("fire_ratio", "ratio"),
        )
    },
    "closure.wrapper_share": "ratio",
    "bench.run_workload_s": "s",
    "bench.harness_s": "s",
    "cli.overhead_us": "us",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}

COUNTER_FIELDS = ("deps", "attrib_ops", "inner", "outer")


@dataclass(frozen=True)
class Corpus:
    """Sizes of one workload.

    Contexts of one ``shape`` ``(objects, attributes, density)`` are made in
    turn until their three bases hold ``target`` implications in all, or
    ``limit`` contexts exist.  Fixing the amount of work rather than the
    number of contexts keeps the run time, and its spread over seeds, small.
    ``setups`` is the number of set-up rounds; ``queries`` counts queries
    per context and density (``query``) or per loaded basis (``oneshot``).
    """

    shape: tuple[int, int, float]
    target: int
    limit: int
    setups: int
    queries: int = 0


CORPORA = {
    "build": Corpus(shape=(15, 19, 0.3), target=19_000, limit=48, setups=31),
    "query": Corpus(shape=(32, 24, 0.15), target=11_200, limit=40, setups=4, queries=60),
    "oneshot": Corpus(shape=(22, 16, 0.2), target=6_000, limit=60, setups=5, queries=4),
}


def basis_total(bases: dict) -> int:
    return sum(len(b) for b in bases.values())


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(f"{what} ({failed} of {attempted})")


class Run:
    """State of one benchmark run: tracer, checks, metrics and provenance."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, corpus: Corpus):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.corpus = corpus
        self.tracer = Tracer(f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
        self.checks = Checks()
        self.reference = Reference()
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
        self.provenance: dict = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "version": cli.version_string(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "contexts": [],
            "query_digests": {},
        }

    def call(self, name: str, fn: Callable, *args):
        """Call into a layer, inside a span named after it when tracing."""
        if not self.tracer.enabled:
            return fn(*args)
        with self.tracer.span(name):
            return fn(*args)

    def sub_seed(self, tag: str) -> int:
        return derive_seed(self.seed, f"{self.workload}:{tag}")

    def passes(self, one_pass: Callable[[int], object]) -> tuple[list, float]:
        """Repeat ``one_pass`` until the time budget is spent.

        A pass starts only if the median pass so far still fits, after at
        least three passes.  With tracing, odd passes are traced and at
        least one of each kind runs.  Returns ``(traced, wall, result)`` per
        pass and the phase's reference-speed scale.
        """
        done: list[tuple[bool, float, object]] = []
        start = time.perf_counter()
        index = 0
        mark = self.reference.mark()
        self.reference.sample(5)
        while True:
            self.reference.sample()
            traced = self.trace and index % 2 == 1
            self.tracer.enabled = traced
            with self.tracer.span("pass", group=f"pass{index}"):
                t0 = time.perf_counter()
                result = one_pass(index)
                wall = time.perf_counter() - t0
            self.tracer.enabled = False
            done.append((traced, wall, result))
            index += 1
            elapsed = time.perf_counter() - start
            typical = statistics.median(w for _, w, _ in done)
            if index >= 2 + (not self.trace) and elapsed + typical > self.seconds:
                self.provenance["passes"] = index
                self.reference.sample(5)
                if self.trace:
                    plain = [w for t, w, _ in done if not t]
                    traced = [w for t, w, _ in done if t]
                    ratio = statistics.median(traced) / statistics.median(plain)
                    self.layers["trace.overhead_ratio"] = ratio
                return done, self.reference.scale(mark)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def best(done: list[tuple[bool, float, list[float]]], scale: float) -> list[float]:
    """Per call of a pass, its least time over the untraced passes, at the
    reference speed.

    The benchmark runs on shared machines, where contention only ever adds
    time.  On a shared 2-vCPU virtual machine, medians of the same work moved
    by up to 50% between consecutive runs while minima moved by up to 20%;
    scaling to the reference speed (``reference.py``) removes most of the
    rest.
    """
    repeats = [times for traced, _, times in done if not traced]
    return [min(column) * scale for column in zip(*repeats)]


def set_items(run: Run, items: int, times_s: list[float]) -> None:
    """``items_per_s`` and the median call latency from per-call best times.

    A pass has 8 to 70 calls, too few for a 90th percentile with ten calls
    beyond it, so p90 goes to the provenance only.
    """
    run.e2e["items_per_s"] = items / sum(times_s)
    run.e2e["call_p50_ms"] = statistics.median(times_s) * 1e3
    run.provenance["call_p90_ms"] = percentile(times_s, 0.9) * 1e3
    run.provenance["latency_samples"] = len(times_s)


# -- shared steps -------------------------------------------------------------


def build_three(run: Run, ctx: Context) -> dict[BasisKind, Basis]:
    return {kind: run.call(f"bases.build_{kind.value}", BUILDERS[kind], ctx) for kind in KINDS}


def verify(run: Run, bases: dict[BasisKind, Basis], where: str) -> None:
    """``check_equiv`` on every pair and ``direct_witness`` on every basis;
    cdub and dbasis must have no witness."""
    for i, a in enumerate(KINDS):
        for b in KINDS[i + 1 :]:
            same = run.call("bases.check_equiv", check_equiv, bases[a], bases[b])
            run.checks.expect(same, f"{where}: {a.value} and {b.value} not equivalent")
    for kind in KINDS:
        witness = run.call("bases.direct_witness", direct_witness, bases[kind])
        if kind is not BasisKind.DG:
            run.checks.expect(witness is None, f"{where}: {kind.value} has witness {witness}")


def check_bases(
    run: Run, ctx: Context, bases: dict[BasisKind, Basis], where: str, planted: bool
) -> None:
    """Round trips, hierarchy expectations and provenance for one context."""
    for kind, basis in bases.items():
        same = parse_basis(render_basis(basis)) == basis
        run.checks.expect(same, f"{where}: {kind.value} .imp round trip differs")
    cdub, dbasis = bases[BasisKind.CDUB], bases[BasisKind.DBASIS]
    if planted:
        run.checks.expect(in_regime(bases), f"{where}: dbasis outside its regime")
    facts = {
        "objects": ctx.objects,
        "attributes": ctx.universe.size,
        "cdub_size": len(cdub),
        "cdub_units": len(unit_expand(cdub)),
        "dbasis_size": len(dbasis),
        "dbasis_sigma0": dbasis.sigma0_len,
        "dg_size": len(bases[BasisKind.DG]),
    }
    run.provenance["contexts"].append(facts)
    for key, value in facts.items():
        layer = f"context.{key}" if key in ("objects", "attributes") else f"bases.{key}"
        run.layers[layer] += value


def same_across(run: Run, values: list, what: str) -> None:
    """Repeated set-ups and passes must produce identical results."""
    for value in values[1:]:
        run.checks.expect(value == values[0], f"{what} differs between repetitions")


def in_regime(bases: dict[BasisKind, Basis]) -> bool:
    """The regime the dbasis exists for: a binary prefix, and fewer
    implications than the cdub."""
    dbasis = bases[BasisKind.DBASIS]
    return dbasis.sigma0_len > 0 and len(dbasis) < len(bases[BasisKind.CDUB])


def hierarchy_setup(run: Run, render: bool):
    """Set-up of ``query`` and ``oneshot``: generate planted-hierarchy
    contexts and build their bases (and render them for ``oneshot``) until
    the corpus target is met, once per set-up round.  The few contexts
    outside :func:`in_regime` (about 1 in 100 at 14-18 attributes) are
    skipped and counted.  The bases are then verified once.  Returns the
    contexts, bases and texts of the last round."""
    setup_s: list[float] = []
    rounds = []
    corpus = run.corpus
    mark = run.reference.mark()
    for r in range(corpus.setups):
        run.reference.sample(3)
        run.tracer.enabled = run.trace
        with run.tracer.span("setup", group=f"setup{r}"):
            t0 = time.perf_counter()
            made = 0
            ctxs, bases, texts = [], [], []
            while made < corpus.limit and sum(map(basis_total, bases)) < corpus.target:
                seed = run.sub_seed(f"ctx{made}")
                ctx = run.call("context.gen", gen_hierarchy, *corpus.shape, seed)
                made += 1
                built = build_three(run, ctx)
                if not in_regime(built):
                    continue
                ctxs.append(ctx)
                bases.append(built)
                if render:
                    texts.append(
                        {k: run.call("sets.render_basis", render_basis, built[k]) for k in KINDS}
                    )
            setup_s.append(time.perf_counter() - t0)
        run.tracer.enabled = False
        rounds.append((ctxs, bases, texts))
        run.provenance["regime_skips"] = made - len(ctxs)
    run.reference.sample(3)
    run.e2e["setup_s"] = statistics.median(setup_s) * run.reference.scale(mark)
    same_across(run, [b for _, b, _ in rounds], "bases of repeated set-ups")
    same_across(run, [t for _, _, t in rounds], ".imp texts of repeated set-ups")
    ctxs, bases, texts = rounds[-1]
    if not ctxs:
        raise RuntimeError("no generated context is in the dbasis regime")
    run.tracer.enabled = run.trace
    with run.tracer.span("verify", group="verify"):
        for i, b in enumerate(bases):
            verify(run, b, f"context {i}")
    run.tracer.enabled = False
    for i, (ctx, b) in enumerate(zip(ctxs, bases)):
        check_bases(run, ctx, b, f"context {i}", planted=True)
    return ctxs, bases, texts


def setup_layers(run: Run) -> None:
    """Per-layer times of the traced set-up rounds and their verification."""
    for name in (
        "context.gen",
        "bases.build_cdub",
        "bases.build_dbasis",
        "bases.build_dg",
        "sets.render_basis",
    ):
        run.layers[f"{name}_s"] = run.tracer.median_sum(name, "setup") / 1e9
    for name in ("bases.check_equiv", "bases.direct_witness"):
        run.layers[f"{name}_s"] = run.tracer.median_sum(name, "verify") / 1e9


def reference_provenance(run: Run) -> None:
    samples, scales = run.reference.samples, run.reference.scales
    run.provenance["reference"] = {
        "kernel_best_s": min(samples),
        "kernel_median_s": statistics.median(samples),
        "samples": len(samples),
        "phase_scales": scales,
    }


def peak_rss(run: Run) -> None:
    run.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- build ----------------------------------------------------------------------


def run_build(run: Run) -> None:
    corpus = run.corpus
    setup_s: list[float] = []
    rounds = []
    mark = run.reference.mark()
    for r in range(corpus.setups):
        run.reference.sample()
        run.tracer.enabled = run.trace
        with run.tracer.span("setup", group=f"setup{r}"):
            t0 = time.perf_counter()
            texts = [
                render_cxt(run.call("context.gen", uniform_context, run, i, *corpus.shape))
                for i in range(corpus.limit)
            ]
            elapsed = time.perf_counter() - t0
        run.tracer.enabled = False
        setup_s.append(elapsed)
        rounds.append(texts)
    run.reference.sample(3)
    run.e2e["setup_s"] = statistics.median(setup_s) * run.reference.scale(mark)
    same_across(run, rounds, ".cxt texts of repeated set-ups")
    texts = rounds[-1]
    # The first pass takes contexts until the target is met; later passes
    # repeat exactly those and must build the same bases.
    first: list[dict[BasisKind, Basis]] = []
    first_ctxs: list[Context] = []

    def one_pass(index: int):
        latencies = []
        for i, text in enumerate(texts):
            if index == 0 and sum(map(basis_total, first)) >= corpus.target:
                break
            if index > 0 and i == len(first):
                break
            t0 = time.perf_counter()
            ctx = run.call("context.parse_cxt", parse_cxt, text)
            bases = build_three(run, ctx)
            verify(run, bases, f"pass {index} context {i}")
            latencies.append(time.perf_counter() - t0)
            if index == 0:
                first.append(bases)
                first_ctxs.append(ctx)
            else:
                run.checks.expect(bases == first[i], f"pass {index} context {i}: bases differ")
        return latencies

    done, scale = run.passes(one_pass)
    for i, (ctx, bases) in enumerate(zip(first_ctxs, first)):
        check_bases(run, ctx, bases, f"context {i}", planted=False)
    set_items(run, sum(map(basis_total, first)), best(done, scale))
    if run.trace:
        setup_layers(run)
        for name in (
            "context.parse_cxt",
            "bases.build_cdub",
            "bases.build_dbasis",
            "bases.build_dg",
            "bases.check_equiv",
            "bases.direct_witness",
        ):
            run.layers[f"{name}_s"] = run.tracer.median_sum(name, "pass") / 1e9


def uniform_context(run: Run, index: int, objects: int, attributes: int, density: float) -> Context:
    """``gen_synthetic`` at the next sub-seed that does not degenerate."""
    attempt = 0
    while True:
        try:
            seed = run.sub_seed(f"ctx{index}.{attempt}")
            return gen_synthetic(objects, attributes, density, seed)
        except DegenerateContext:
            attempt += 1


# -- query ----------------------------------------------------------------------


def draw_queries(
    universe: Universe, count: int, density: float, seed: int
) -> tuple[list[int], str]:
    """The query sequence ``run_workload`` draws for this spec, rebuilt here
    so the replay can be checked against the digest it reports."""
    rng = Random(seed)
    n = universe.size
    hasher = hashlib.sha256()
    queries = []
    for _ in range(count):
        if density == 0.5:
            bits = rng.getrandbits(n)
        else:
            bits = 0
            for j in range(n):
                if rng.random() < density:
                    bits |= 1 << j
        hasher.update(bits.to_bytes((n + 7) // 8, "big"))
        queries.append(bits)
    return queries, hasher.hexdigest()[:16]


class ClosureProbe:
    """Wraps the closure functions ``run_workload`` looks up in
    ``ALGORITHMS``, so each call is timed from outside and its counters are
    summed per pairing.  Installed only during traced passes."""

    def __init__(self) -> None:
        self.totals: dict[tuple[BasisKind, str], list[int]] = {}

    def wrap(self, algo: str, func: Callable) -> Callable:
        def timed(x, basis):
            t0 = time.perf_counter_ns()
            result = func(x, basis)
            t1 = time.perf_counter_ns()
            m = result.metrics
            entry = self.totals.get((basis.kind, algo))
            if entry is None:
                entry = self.totals[(basis.kind, algo)] = [t0, 0, 0, 0, 0, 0, 0, 0]
            entry[1] = t1
            entry[2] += t1 - t0
            entry[3] += m.elapsed_ns
            entry[4] += m.deps
            entry[5] += m.attribute_ops
            entry[6] += m.inner_loops
            entry[7] += m.outer_loops
            return result

        return timed

    @contextlib.contextmanager
    def installed(self):
        saved = dict(bench_mod.ALGORITHMS)
        for algo, func in saved.items():
            bench_mod.ALGORITHMS[algo] = self.wrap(algo, func)
        try:
            yield self
        finally:
            bench_mod.ALGORITHMS.update(saved)


def run_query(run: Run) -> None:
    ctxs, bases, _ = hierarchy_setup(run, render=False)
    specs = []
    expected: dict[tuple[int, float], dict[tuple[BasisKind, str], tuple[int, ...]]] = {}
    digests: dict[tuple[int, float], str] = {}
    for i, ctx in enumerate(ctxs):
        for density in QUERY_DENSITIES:
            spec = WorkloadSpec(
                queries=run.corpus.queries,
                repetitions=1,
                seed=run.sub_seed(f"queries{i}@{density}"),
                query_density=density,
            )
            specs.append((i, density, spec))
            queries, digest = draw_queries(ctx.universe, spec.queries, density, spec.seed)
            digests[(i, density)] = digest
            run.provenance["query_digests"][f"context{i}@{density}"] = digest
            expected[(i, density)] = replay(run, ctx, bases[i], queries, f"context {i} @{density}")
    per_pass = len(specs) * len(PAIRINGS) * run.corpus.queries

    def one_pass(index: int):
        latencies = []
        probe = ClosureProbe()
        with probe.installed() if run.tracer.enabled else contextlib.nullcontext():
            for i, density, spec in specs:
                t0 = time.perf_counter()
                with run.tracer.span("bench.run_workload") as span:
                    got = run_workload(bases[i], spec, dataset_id=f"context{i}")
                    for (kind, algo), (start, end, busy, kernel, *counts) in probe.totals.items():
                        run.tracer.record(
                            f"closure.{label(kind, algo)}",
                            start,
                            end,
                            busy_ns=busy,
                            kernel_ns=kernel,
                            **dict(zip(COUNTER_FIELDS, counts)),
                            density=density,
                        )
                        run.checks.expect(
                            tuple(counts) == expected[(i, density)][(kind, algo)],
                            f"traced counters of {label(kind, algo)} differ from the replay",
                        )
                    probe.totals.clear()
                latencies.append(time.perf_counter() - t0)
                for report in got:
                    pairing = (report.basis_kind, report.algorithm)
                    run.checks.expect(
                        report.query_digest == digests[(i, density)]
                        and report.totals.counters() == expected[(i, density)][pairing],
                        f"run_workload {label(*pairing)} on context {i} @{density} differs",
                    )
        return latencies

    done, scale = run.passes(one_pass)
    set_items(run, per_pass, best(done, scale))
    run.provenance["queries_per_pass"] = per_pass
    if run.trace:
        setup_layers(run)
        closure_layers(run)
        workload_s = run.tracer.median_sum("bench.run_workload", "pass")
        calls_s = sum(
            run.tracer.median_sum(f"closure.{label(*p)}", "pass", "busy_ns") for p in PAIRINGS
        )
        run.layers["bench.run_workload_s"] = workload_s / 1e9
        run.layers["bench.harness_s"] = (workload_s - calls_s) / 1e9


def replay(run: Run, ctx: Context, bases: dict[BasisKind, Basis], queries: list[int], where: str):
    """Close every query with every pairing, one call at a time, compare each
    closure with the context's own closure, and return the summed counters
    per pairing that ``run_workload`` must reproduce."""
    universe = ctx.universe
    reference = [ctx.closure_bits(bits) for bits in queries]
    sums = {}
    for kind, algo in PAIRINGS:
        func = ALGORITHMS[algo]
        total = [0, 0, 0, 0]
        wrong = 0
        for bits, closed in zip(queries, reference):
            result = func(AttributeSet(universe, bits), bases[kind])
            wrong += result.closure.bits != closed
            for j, value in enumerate(result.metrics.counters()):
                total[j] += value
        run.checks.tally(len(queries), wrong, f"{where}: wrong closures of {label(kind, algo)}")
        sums[(kind, algo)] = tuple(total)
    return sums


def closure_layers(run: Run) -> None:
    """Per-pairing closure metrics from the folded spans of traced passes."""
    kernel_total = call_total = 0.0
    for kind, algo in PAIRINGS:
        name = f"closure.{label(kind, algo)}"
        kernel = run.tracer.median_sum(name, "pass", "kernel_ns")
        call = run.tracer.median_sum(name, "pass", "busy_ns")
        kernel_total += kernel
        call_total += call
        run.layers[f"{name}.kernel_ms"] = kernel / 1e6
        run.layers[f"{name}.call_ms"] = call / 1e6
        for field in COUNTER_FIELDS:
            run.layers[f"{name}.{field}"] = run.tracer.median_sum(name, "pass", field)
        inner = run.layers[f"{name}.inner"]
        run.layers[f"{name}.fire_ratio"] = run.layers[f"{name}.deps"] / inner if inner else 0.0
    run.layers["closure.wrapper_share"] = 1 - kernel_total / call_total if call_total else 0.0


# -- oneshot --------------------------------------------------------------------


def index_basis(basis: Basis) -> None:
    """The per-basis indexes the closure algorithms build on first use."""
    basis.pairs()
    basis.attr_lists()
    basis.attr_masks()
    if basis.kind is BasisKind.DBASIS:
        basis.binary_reach()


@dataclass(frozen=True)
class Load:
    """One ``.imp`` text with its queries and the answers the context gives."""

    kind: BasisKind
    text: str
    queries: tuple[AttributeSet, ...]
    closures: tuple[int, ...]
    probes: tuple[Implication, ...]
    entailed: tuple[bool, ...]


def make_loads(run: Run, ctxs: list[Context], texts: list[dict[BasisKind, str]]) -> list[Load]:
    loads = []
    for i, ctx in enumerate(ctxs):
        universe = ctx.universe
        for kind in KINDS:
            rng = Random(run.sub_seed(f"oneshot{i}.{kind.value}"))
            queries, probes = [], []
            for _ in range(run.corpus.queries):
                bits = 0
                for j in range(universe.size):
                    if rng.random() < 0.3:
                        bits |= 1 << j
                bits = bits or 1 << rng.randrange(universe.size)
                queries.append(AttributeSet(universe, bits))
                target = AttributeSet(universe, 1 << rng.randrange(universe.size))
                probes.append(Implication(queries[-1], target))
            closures = tuple(ctx.closure_bits(q.bits) for q in queries)
            loads.append(
                Load(
                    kind,
                    texts[i][kind],
                    tuple(queries),
                    closures,
                    tuple(probes),
                    tuple(p.rhs.bits & ~c == 0 for p, c in zip(probes, closures)),
                )
            )
    return loads


def answer(run: Run, load: Load) -> tuple[list, list[bool]]:
    """Load one basis from text, index it, answer the queries with every
    valid algorithm and ``implies``, then drop the basis."""
    basis = run.call("sets.parse_basis", parse_basis, load.text)
    run.call("sets.index", index_basis, basis)
    results = []
    for algo in TABLE_COMBOS[load.kind]:
        func = ALGORITHMS[algo]
        with run.tracer.span(f"closure.{label(load.kind, algo)}") as span:
            t0 = time.perf_counter_ns()
            batch = [func(q, basis) for q in load.queries]
            if span:
                span["busy_ns"] = time.perf_counter_ns() - t0
                span["kernel_ns"] = sum(r.metrics.elapsed_ns for r in batch)
                sums = map(sum, zip(*(r.metrics.counters() for r in batch)))
                span.update(zip(COUNTER_FIELDS, sums))
        results.append((algo, batch))
    with run.tracer.span("closure.implies"):
        verdicts = [implies(basis, p) for p in load.probes]
    return results, verdicts


def run_oneshot(run: Run) -> None:
    ctxs, _, texts = hierarchy_setup(run, render=True)
    loads = make_loads(run, ctxs, texts)
    first: list[list[tuple[int, ...]]] = []

    def one_pass(index: int):
        latencies = []
        for n, load in enumerate(loads):
            t0 = time.perf_counter()
            with run.tracer.span("oneshot.call"):
                results, verdicts = answer(run, load)
            latencies.append(time.perf_counter() - t0)
            counters = []
            for algo, batch in results:
                wrong = sum(r.closure.bits != c for r, c in zip(batch, load.closures))
                run.checks.tally(len(batch), wrong, f"wrong closures of {label(load.kind, algo)}")
                counters.extend(r.metrics.counters() for r in batch)
            wrong = sum(v != e for v, e in zip(verdicts, load.entailed))
            run.checks.tally(len(verdicts), wrong, "implies disagrees with the context")
            if index == 0:
                first.append(counters)
            else:
                run.checks.expect(counters == first[n], f"pass {index}: counters differ")
        return latencies

    done, scale = run.passes(one_pass)
    set_items(run, len(loads), best(done, scale))
    if run.trace:
        setup_layers(run)
        closure_layers(run)
        for name in ("sets.parse_basis", "sets.index"):
            run.layers[f"{name}_s"] = run.tracer.median_sum(name, "pass") / 1e9
        run.layers["cli.overhead_us"] = cli_overhead(run, loads)


def cli_overhead(run: Run, loads: list[Load]) -> float:
    """Median of ``cli.main(["closure", ...])`` minus the library calls that
    answer the same query, with the command's stdout captured and checked."""
    samples = []
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=root) as tmp:
        run.tracer.enabled = True
        with run.tracer.span("cli", group="cli"):
            for n, load in enumerate(loads * 3):
                path = Path(tmp) / f"basis{n % len(loads)}.imp"
                if n < len(loads):
                    path.write_text(load.text, encoding="utf-8")
                query = load.queries[0]
                algo = TABLE_COMBOS[load.kind][0]
                out = io.StringIO()
                t0 = time.perf_counter_ns()
                with run.tracer.span("cli.main"), contextlib.redirect_stdout(out):
                    argv = ["closure", "--basis", str(path), "--algo", algo]
                    code = cli.main(argv + ["--set", " ".join(query.labels())])
                t1 = time.perf_counter_ns()
                basis = parse_basis(load.text)
                closed = ALGORITHMS[algo](query, basis).closure
                t2 = time.perf_counter_ns()
                run.checks.expect(
                    code == 0 and out.getvalue().splitlines()[:1] == [str(closed)]
                    and closed.bits == load.closures[0],
                    f"cli closure of {label(load.kind, algo)} differs from the library",
                )
                samples.append((t1 - t0) - (t2 - t1))
        run.tracer.enabled = False
    return statistics.median(samples) / 1e3


WORKLOADS = {"build": run_build, "query": run_query, "oneshot": run_oneshot}


def execute(
    workload: str, seed: int, seconds: float, trace: bool, corpus: Corpus | None = None
) -> Run:
    """Run one workload and return its metrics, checks and provenance."""
    run = Run(workload, seed, seconds, trace, corpus or CORPORA[workload])
    WORKLOADS[workload](run)
    reference_provenance(run)
    peak_rss(run)
    checks = run.checks
    run.layers["fail_ratio"] = checks.failed / checks.attempted if checks.attempted else 1.0
    return run
