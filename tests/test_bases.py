"""The three basis constructions and the predicates around them."""

from __future__ import annotations

import gc
import random
import sys
import weakref

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import implbase.bases
import implbase.bits
import implbase.context
import implbase.sets
from conftest import (
    EX51_IMP,
    aset,
    closed_family,
    contranominal,
    ctx_from_rows,
    lectic_key,
    random_standard_context,
)
from implbase.bases import (
    EXHAUSTIVE_LIMIT,
    SAMPLES,
    _premises,
    _pseudo_closed,
    _search,
    build_cdub,
    build_dbasis,
    build_dg,
    check_equiv,
    direct_scope,
    direct_witness,
    enumerate_pseudo_closed,
)
from implbase.bits import (
    fixpoint_bits,
    slice_pairs,
    sliced_fixpoint,
    sliced_round,
    transpose_bits,
)
from implbase.closure import oracle_closure
from implbase.context import Context, clarify, gen_synthetic, reduce
from implbase.errors import DegenerateContext, NotStandardContext, UniverseMismatch
from implbase.sets import (
    AttributeSet,
    Basis,
    BasisKind,
    Implication,
    Universe,
    _merge_pairs,
    merge_same_lhs,
    read_basis,
    unit_expand,
)
from transversals import folded_pairs, minimal_transversals, premise_edges, premise_families

BUILDERS = (build_cdub, build_dbasis, build_dg)


def impl_strings(basis: Basis) -> list[str]:
    return [str(impl) for impl in basis]


# -- exact contents on the worked example -----------------------------------------


def test_cdub_on_worked_example(ex51):
    basis = build_cdub(ex51)
    assert basis.kind is BasisKind.CDUB
    assert impl_strings(basis) == [
        "b d -> a",
        "b c -> a d",
        "a d -> b",
        "d -> c",
        "a b -> c d",
    ]


def test_dbasis_on_worked_example(ex51):
    basis = build_dbasis(ex51)
    assert basis.kind is BasisKind.DBASIS
    assert basis.sigma0_len == 1
    assert impl_strings(basis) == [
        "d -> c",
        "b c -> a d",
        "a d -> b",
        "a b -> c d",
    ]
    assert basis == read_basis(EX51_IMP)


def test_dbasis_unit_form(ex51):
    # as unit dependencies: d->c, bc->a, bc->d, ad->b, ab->c, ab->d
    basis = build_dbasis(ex51)
    u = basis.universe
    expected = {
        (aset(u, "d").bits, 2),
        (aset(u, "b c").bits, 0),
        (aset(u, "b c").bits, 3),
        (aset(u, "a d").bits, 1),
        (aset(u, "a b").bits, 2),
        (aset(u, "a b").bits, 3),
    }
    assert unit_expand(basis) == expected


def test_dbasis_tail_drops_premises_reached_through_the_prefix(ex51):
    # {b,d} generates a, but the prefix turns {b,d} into {b,c,d}, which
    # contains the other generator {b,c}; the tail therefore skips b d -> a
    basis = build_dbasis(ex51)
    tail_lhs = {str(impl.lhs) for impl in basis.implications[basis.sigma0_len :]}
    assert tail_lhs == {"b c", "a d", "a b"}
    cdub_lhs = {str(impl.lhs) for impl in build_cdub(ex51)}
    assert "b d" in cdub_lhs


def test_dg_on_worked_example(ex51):
    basis = build_dg(ex51)
    assert basis.kind is BasisKind.DG
    assert impl_strings(basis) == [
        "d -> c",
        "b c -> a d",
        "a c d -> b",
        "a b -> c d",
    ]


def test_builders_are_deterministic(ex51):
    for build in BUILDERS:
        assert build(ex51) == build(ex51)


# -- small special contexts ---------------------------------------------------------


def test_chain_context_bases(chain3):
    cdub = build_cdub(chain3)
    dbasis = build_dbasis(chain3)
    dg = build_dg(chain3)
    assert impl_strings(cdub) == ["c -> a b", "b -> a"]
    # the prefix stays in unit form; the whole basis is binary, no tail
    assert impl_strings(dbasis) == ["b -> a", "c -> a", "c -> b"]
    assert dbasis.sigma0_len == 3
    assert impl_strings(dg) == ["c -> a b", "b -> a"]
    assert unit_expand(cdub) == unit_expand(dbasis)


def test_contranominal_contexts_have_empty_bases():
    for n in (3, 4):
        ctx = contranominal(n)
        for build in BUILDERS:
            basis = build(ctx)
            assert len(basis) == 0
            assert basis.universe == ctx.universe


def test_single_attribute_standard_context():
    ctx = ctx_from_rows(["a"], [""])
    for build in BUILDERS:
        assert len(build(ctx)) == 0


def test_builders_reject_nonstandard_contexts():
    unreduced = ctx_from_rows(["a"], ["a"])
    unclarified = ctx_from_rows(["p", "q"], ["p", "p"])
    for build in BUILDERS:
        with pytest.raises(NotStandardContext):
            build(unreduced)
        with pytest.raises(NotStandardContext):
            build(unclarified)


def test_one_standardness_check_per_context(monkeypatch):
    calls = []
    real = implbase.bases.require_standard
    monkeypatch.setattr(
        implbase.bases, "require_standard", lambda ctx: calls.append(ctx) or real(ctx)
    )
    ctx = gen_synthetic(12, 6, 0.4, seed=5)
    for build in BUILDERS:
        build(ctx)
    assert calls == [ctx]


def test_each_builder_refuses_a_nonstandard_context_cold(ex51):
    unreduced = ctx_from_rows(["a", "b"], ["a", "a b"])
    for build in BUILDERS:
        build_cdub(ex51)  # the shared search now holds a standard context
        for _ in range(2):  # a refused context is never kept
            with pytest.raises(NotStandardContext):
                build(unreduced)


# -- soundness, completeness, minimality of premises -----------------------------------


def test_bases_reproduce_the_context_closure_exhaustively():
    rng = random.Random(61)
    for _ in range(30):
        ctx = random_standard_context(rng, rng.randint(2, 8))
        u = ctx.universe
        bases = [build(ctx) for build in BUILDERS]
        for bits in range(1 << u.size):
            x = AttributeSet(u, bits)
            expected = ctx.closure_bits(bits)
            for basis in bases:
                assert oracle_closure(x, basis).bits == expected


def test_cdub_premises_are_minimal_generators():
    rng = random.Random(62)
    for _ in range(25):
        ctx = random_standard_context(rng, rng.randint(2, 7))
        for impl in build_cdub(ctx):
            lhs = impl.lhs
            closed = ctx.closure_bits(lhs.bits)
            for m in impl.rhs:
                assert closed >> m & 1
                assert m not in lhs
                for a in lhs:
                    assert not ctx.closure_bits(lhs.bits & ~(1 << a)) >> m & 1


def test_dbasis_units_are_a_subset_of_cdub_units():
    rng = random.Random(63)
    for _ in range(25):
        ctx = random_standard_context(rng, rng.randint(2, 7))
        assert unit_expand(build_dbasis(ctx)) <= unit_expand(build_cdub(ctx))


def test_merged_sizes_are_ordered():
    rng = random.Random(64)
    for _ in range(25):
        ctx = random_standard_context(rng, rng.randint(2, 8))
        cdub = build_cdub(ctx)
        dbasis = merge_same_lhs(build_dbasis(ctx))
        dg = build_dg(ctx)
        assert len(dg) <= len(dbasis) <= len(cdub)


# -- directness ------------------------------------------------------------------------


def test_built_bases_directness(ex51):
    assert direct_witness(build_cdub(ex51)) is None
    assert direct_witness(build_dbasis(ex51)) is None
    assert direct_witness(build_dg(ex51)) is not None


def test_direct_scope_names_the_default_policy():
    assert direct_scope(4) == "exhaustive, 16 sets"
    assert direct_scope(12) == "exhaustive, 4096 sets"
    assert direct_scope(13) == "sampled, 2048 sets, seed 0"


def test_direct_witness_for_plain_rounds_on_the_ordered_basis(ex51):
    # under a simultaneous round (raw kind) the ordered basis misses exactly
    # one input: {b,d}, whose pass stops at {b,c,d}
    dbasis = build_dbasis(ex51)
    raw = Basis(dbasis.implications, kind=BasisKind.RAW, universe=dbasis.universe)
    witness = direct_witness(raw)
    assert witness is not None
    assert str(witness) == "b d"


def test_prefix_must_come_first_for_the_ordered_round(ex51):
    # one in-order sweep over tail-then-prefix misses the closure of {b,d}
    dbasis = build_dbasis(ex51)
    u = dbasis.universe
    shuffled = (
        dbasis.implications[dbasis.sigma0_len :] + dbasis.implications[: dbasis.sigma0_len]
    )
    bits = aset(u, "b d").bits
    for impl in shuffled:
        if impl.lhs.bits & bits == impl.lhs.bits:
            bits |= impl.rhs.bits
    assert bits == aset(u, "b c d").bits
    assert oracle_closure(aset(u, "b d"), dbasis).bits == u.mask


def test_random_built_bases_verify_direct():
    rng = random.Random(65)
    for _ in range(15):
        ctx = random_standard_context(rng, rng.randint(2, 7))
        assert direct_witness(build_cdub(ctx)) is None
        assert direct_witness(build_dbasis(ctx)) is None


def test_direct_witness_sampling_path():
    # above the exhaustive limit the check falls back to seeded sampling
    rng = random.Random(66)
    ctx = random_standard_context(rng, 16, objects=40)
    assert ctx.universe.size > EXHAUSTIVE_LIMIT
    assert direct_scope(ctx.universe.size) == f"sampled, {SAMPLES} sets, seed 0"
    assert direct_witness(build_cdub(ctx)) is None
    assert direct_witness(build_dbasis(ctx)) is None


# -- pseudo-closed sets -----------------------------------------------------------------


def test_pseudo_closed_family_on_worked_example(ex51):
    dg = build_dg(ex51)
    witnesses = enumerate_pseudo_closed(dg)
    assert [str(w.pseudo_closed) for w in witnesses] == ["d", "b c", "a c d", "a b"]
    for w in witnesses:
        assert w.closure == oracle_closure(w.pseudo_closed, dg)


def test_is_pseudo_closed_predicates(ex51):
    dg = build_dg(ex51)
    u = dg.universe
    family = {w.pseudo_closed for w in enumerate_pseudo_closed(dg)}
    assert aset(u, "d") in family
    assert aset(u, "a c d") in family
    assert aset(u, "b d") not in family  # {d} closes outside of it
    assert aset(u, "c") not in family  # already closed
    assert AttributeSet(u, 0) not in family
    assert u.full() not in family


def test_dg_lhs_are_exactly_the_pseudo_closed_sets():
    rng = random.Random(67)
    for _ in range(20):
        ctx = random_standard_context(rng, rng.randint(2, 7))
        dg = build_dg(ctx)
        family = {w.pseudo_closed.bits for w in enumerate_pseudo_closed(dg)}
        assert {impl.lhs.bits for impl in dg} == family


def test_dg_rhs_is_closure_minus_premise(ex51):
    for impl in build_dg(ex51):
        assert impl.rhs.bits == ex51.closure_bits(impl.lhs.bits) & ~impl.lhs.bits


# -- equivalence and minimality ------------------------------------------------------------


def test_check_equiv_positive(ex51):
    bases = [build(ex51) for build in BUILDERS]
    for i in range(3):
        for j in range(3):
            assert check_equiv(bases[i], bases[j])


def test_check_equiv_negative(ex51):
    dg = build_dg(ex51)
    for drop in range(len(dg)):
        impls = [impl for i, impl in enumerate(dg) if i != drop]
        weaker = Basis(impls, kind=BasisKind.RAW, universe=dg.universe)
        assert not check_equiv(dg, weaker)


def test_check_equiv_rejects_foreign_bases(ex51):
    dg = build_dg(ex51)
    other = Basis([], universe=Universe(size=4))
    with pytest.raises(UniverseMismatch):
        check_equiv(dg, other)


def test_dg_is_minimum_and_irredundant():
    rng = random.Random(68)
    for _ in range(15):
        ctx = random_standard_context(rng, rng.randint(2, 7))
        dg = build_dg(ctx)
        cdub = build_cdub(ctx)
        dbasis = build_dbasis(ctx)
        assert len(dg) <= len(cdub)
        assert check_equiv(dg, cdub)
        assert check_equiv(dg, dbasis)
        for drop in range(len(dg)):
            impls = [impl for i, impl in enumerate(dg) if i != drop]
            weaker = Basis(impls, kind=BasisKind.RAW, universe=dg.universe)
            assert not check_equiv(dg, weaker)


def test_bases_induce_the_same_closed_family():
    rng = random.Random(69)
    for _ in range(10):
        ctx = random_standard_context(rng, rng.randint(2, 7))
        u = ctx.universe
        expected = closed_family(ctx)
        for build in BUILDERS:
            basis = build(ctx)
            got = frozenset(
                bits
                for bits in range(1 << u.size)
                if oracle_closure(AttributeSet(u, bits), basis).bits == bits
            )
            assert got == expected


# -- bit-sliced verification against the scalar reference loops ------------------------
#
# direct_witness and check_equiv close all their candidate sets at once, one
# per bit lane.  The loops below close one set at a time and serve as the
# reference: the same witness set (not only the same yes/no answer) and the
# same verdict are required.


def scalar_round(bits: int, pairs, ordered: bool) -> int:
    if ordered:
        for lhs, rhs in pairs:
            if lhs & bits == lhs:
                bits |= rhs
        return bits
    acc = 0
    for lhs, rhs in pairs:
        if lhs & bits == lhs:
            acc |= rhs
    return bits | acc


def scalar_direct_witness(basis: Basis) -> int | None:
    """The first candidate that one round misses, scanned one set at a time:
    the powerset up to ``EXHAUSTIVE_LIMIT`` attributes, else ``SAMPLES``
    sets drawn from the seed that ``direct_scope`` names."""
    n = basis.universe.size
    pairs = basis.pairs()
    ordered = basis.kind is BasisKind.DBASIS
    if n <= EXHAUSTIVE_LIMIT:
        candidates = range(1 << n)
    else:
        rng = random.Random(0)
        candidates = (rng.getrandbits(n) for _ in range(SAMPLES))
    for bits in candidates:
        if scalar_round(bits, pairs, ordered) != fixpoint_bits(bits, pairs):
            return bits
    return None


def scalar_check_equiv(b1: Basis, b2: Basis) -> bool:
    p1, p2 = b1.pairs(), b2.pairs()
    return all(not rhs & ~fixpoint_bits(lhs, p2) for lhs, rhs in p1) and all(
        not rhs & ~fixpoint_bits(lhs, p1) for lhs, rhs in p2
    )


def witness_bits(witness: AttributeSet | None) -> int | None:
    return None if witness is None else witness.bits


def retagged_raw(basis: Basis) -> Basis:
    return Basis(basis.implications, kind=BasisKind.RAW, universe=basis.universe)


def without(basis: Basis, drop: int) -> Basis:
    impls = [impl for i, impl in enumerate(basis) if i != drop]
    return Basis(impls, kind=BasisKind.RAW, universe=basis.universe)


def chain(width: int) -> Basis:
    """m0 -> m1, m1 -> m2: one round misses every set with m0 and without m1."""
    u = Universe(names=[f"m{j}" for j in range(width)])
    return Basis(
        [
            Implication(u.subset(["m0"]), u.subset(["m1"])),
            Implication(u.subset(["m1"]), u.subset(["m2"])),
        ],
        universe=u,
    )


def short_bases(rng: random.Random, width: int) -> list[Basis]:
    """A few implications with about two attributes a side over ``width``
    attributes, under the simultaneous round and, singletons first, under
    the in-order round: cheap to scan one set at a time on either side of
    the exhaustive limit."""
    u = Universe(names=[f"m{j}" for j in range(width)])
    sparse = lambda: rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
    pairs = [(sparse() or 1, sparse() or 2) for _ in range(rng.randint(1, 6))]
    pairs.sort(key=lambda pair: pair[0].bit_count() > 1)
    units = sum(lhs.bit_count() == 1 for lhs, _ in pairs)
    return [
        Basis._from_pairs(pairs, BasisKind.RAW, universe=u),
        Basis._from_pairs(pairs, BasisKind.DBASIS, units, universe=u),
    ]


@settings(max_examples=40, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 8),
    width=st.integers(EXHAUSTIVE_LIMIT - 1, EXHAUSTIVE_LIMIT + 8),
    drop=st.integers(0, 2**16),
)
def test_sliced_direct_witness_matches_the_scalar_scan(ctx_seed, attributes, width, drop):
    rng = random.Random(ctx_seed)
    ctx = random_standard_context(rng, attributes)
    built = [build(ctx) for build in BUILDERS]
    bases = built + [retagged_raw(b) for b in built]
    bases += [without(b, drop % len(b)) for b in built if len(b)]
    bases += [chain(width), *short_bases(rng, width)]
    for basis in bases:
        assert witness_bits(direct_witness(basis)) == scalar_direct_witness(basis)


@settings(max_examples=40, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 8),
    drop=st.integers(0, 2**16),
)
def test_sliced_check_equiv_matches_the_scalar_closures(ctx_seed, attributes, drop):
    ctx = random_standard_context(random.Random(ctx_seed), attributes)
    built = [build(ctx) for build in BUILDERS]
    bases = built + [without(b, drop % len(b)) for b in built if len(b)]
    for b1 in bases:
        for b2 in bases:
            assert check_equiv(b1, b2) == scalar_check_equiv(b1, b2)


# -- the dbasis derived from the cdub against the per-premise filter ------------------
#
# build_dbasis derives its prefix and tail from the merged cdub pairs, one
# bit lane per lhs of two or more attributes.  The loop below reads the
# context instead and takes one premise of one attribute at a time: it
# spreads the premise over the single-attribute closures and ORs the premise
# columns of the attributes outside that reach.


def scalar_dbasis_tail(premises, single_closures, n):
    tail_units = []
    for c in range(n):
        plist = premises[c]
        columns = [0] * n
        for i, lhs in enumerate(plist):
            for a in range(n):
                if lhs >> a & 1:
                    columns[a] |= 1 << i
        everyone = (1 << len(plist)) - 1
        for i, lhs in enumerate(plist):
            if lhs.bit_count() < 2:
                continue
            reach = 0
            for a in range(n):
                if lhs >> a & 1:
                    reach |= single_closures[a]
            if reach >> c & 1:
                continue
            outside = 0
            for a in range(n):
                if not reach >> a & 1:
                    outside |= columns[a]
            if everyone & ~outside & ~(1 << i):
                continue
            tail_units.append((lhs, c))
    tail_units.sort(key=lambda unit: (lectic_key(unit[0], n), unit[1]))
    return list(_merge_pairs([(lhs, 1 << c) for lhs, c in tail_units]).items())


def hierarchy_context(rng: random.Random, attributes: int) -> Context:
    """A standard context whose objects hold the parent of each attribute
    they hold, so that binary implications survive standardisation."""
    universe = Universe(names=[f"m{j}" for j in range(attributes)])
    up = [1 << j for j in range(attributes)]
    for j in range(1, attributes):
        if rng.random() < 0.7:
            up[j] |= up[rng.randrange(j)]
    while True:
        rows = []
        for _ in range(2 * attributes):
            bits = 0
            for j in range(attributes):
                if rng.random() < 0.35:
                    bits |= up[j]
            rows.append(AttributeSet(universe, bits))
        try:
            return reduce(clarify(Context(universe, rows)))
        except DegenerateContext:
            continue


@settings(max_examples=80, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 10),
    hierarchy=st.booleans(),
)
def test_sliced_dbasis_tail_matches_the_per_premise_filter(ctx_seed, attributes, hierarchy):
    make = hierarchy_context if hierarchy else random_standard_context
    ctx = make(random.Random(ctx_seed), attributes)
    n = ctx.universe.size
    single_closures = [ctx.closure_bits(1 << a) for a in range(n)]
    assume(any(closed != 1 << a for a, closed in enumerate(single_closures)))
    want = scalar_dbasis_tail(premise_families(ctx), single_closures, n)
    dbasis = build_dbasis(ctx)
    assert dbasis.sigma0_len > 0
    prefix = [
        (1 << a, 1 << c)
        for a in range(n)
        for c in range(n)
        if c != a and single_closures[a] >> c & 1
    ]
    assert list(dbasis.pairs()[: dbasis.sigma0_len]) == prefix
    assert list(dbasis.pairs()[dbasis.sigma0_len :]) == want


def chain_context(order: list[int]) -> Context:
    """The chain of the attribute prefixes of ``order``, the empty one first:
    every attribute implies those before it, so every premise is a single
    attribute."""
    universe = Universe(names=[f"m{j}" for j in range(len(order))])
    rows = [AttributeSet(universe, sum(1 << a for a in order[:i])) for i in range(len(order))]
    return Context(universe, rows)


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(6)), st.integers(1, 6))
def test_a_dbasis_with_only_singleton_premises_has_no_tail(order, size):
    ctx = chain_context([a for a in order if a < size])
    n = ctx.universe.size
    assert all(lhs & (lhs - 1) == 0 for lhs, _ in _search(ctx).cdub.pairs())
    single_closures = [ctx.closure_bits(1 << a) for a in range(n)]
    assert scalar_dbasis_tail(premise_families(ctx), single_closures, n) == []
    dbasis = build_dbasis(ctx)
    assert dbasis.sigma0_len == len(dbasis) == sum(c.bit_count() - 1 for c in single_closures)
    assert unit_expand(dbasis) == unit_expand(build_cdub(ctx))


@settings(max_examples=40, deadline=None)
@given(ctx_seed=st.integers(0, 2**32 - 1), attributes=st.integers(2, 10))
def test_a_dbasis_without_binary_implications_is_its_filtered_tail(ctx_seed, attributes):
    ctx = random_standard_context(random.Random(ctx_seed), attributes)
    n = ctx.universe.size
    single_closures = [ctx.closure_bits(1 << a) for a in range(n)]
    assume(all(closed == 1 << a for a, closed in enumerate(single_closures)))
    dbasis = build_dbasis(ctx)
    assert dbasis.sigma0_len == 0
    assert list(dbasis.pairs()) == scalar_dbasis_tail(premise_families(ctx), single_closures, n)


# -- one premise search per context -------------------------------------------------
#
# The builders share the cdub pairs of the last context they were called
# on, matched by identity.  Interleaved calls over two contexts, and over two
# equal but distinct ones, must each give what a build on a context no
# builder has seen gives.


def unseen(ctx: Context) -> Context:
    """An equal context that no builder has seen."""
    return Context(ctx.universe, ctx.rows, ctx.object_names)


@pytest.fixture
def searches(monkeypatch) -> list[Context]:
    """The contexts the premise search runs on, in call order."""
    seen: list[Context] = []
    search = implbase.bases._premises

    def counted(ctx: Context) -> tuple[dict[int, int], dict[int, int]]:
        seen.append(ctx)
        return search(ctx)

    monkeypatch.setattr(implbase.bases, "_premises", counted)
    return seen


def test_interleaved_builders_match_builds_on_unseen_contexts(searches):
    rng = random.Random(71)
    a = random_standard_context(rng, 7)
    b = hierarchy_context(rng, 8)
    twin = unseen(a)
    assert twin == a and twin is not a
    expected = {
        (build, id(ctx)): build(unseen(ctx)) for build in BUILDERS for ctx in (a, b, twin)
    }
    searches.clear()
    calls = [
        (build_cdub, a), (build_dbasis, b), (build_dg, a), (build_dg, a), (build_dbasis, twin),
        (build_cdub, twin), (build_dg, b), (build_cdub, a), (build_dbasis, a), (build_dg, twin),
        (build_cdub, b),
    ]
    for build, ctx in calls:
        assert build(ctx) == expected[build, id(ctx)]
    # one search per change of context, by identity: the twin searches anew
    assert list(map(id, searches)) == list(map(id, [a, b, a, twin, b, a, twin, b]))


def test_three_builders_search_the_premises_once(searches, ex51):
    ctx = unseen(ex51)
    for build in BUILDERS:
        build(ctx)
    assert len(searches) == 1 and searches[0] is ctx


def test_the_dbasis_reads_the_context_through_the_premise_search_only(monkeypatch, ex51):
    ctx = unseen(ex51)
    expected = build_dbasis(unseen(ex51))
    assert expected.sigma0_len > 0

    def refused(self, bits):
        raise AssertionError("build_dbasis read a closure from the context")

    monkeypatch.setattr(Context, "closure_bits", refused)
    assert build_dbasis(ctx) == expected


def test_the_walk_reads_the_context_through_its_columns_only(monkeypatch):
    ctx = unseen(gen_synthetic(300, 14, 0.3, 1))
    expected = _premises(unseen(ctx))
    ctx.column_bits()

    def refused(self):
        raise AssertionError("the walk read the rows of the context")

    monkeypatch.setattr(Context, "row_bits", refused)
    assert _premises(ctx) == expected


def test_a_cold_search_transposes_the_context_rows_once(monkeypatch):
    ctx = unseen(gen_synthetic(15, 19, 0.3, 0))
    rows = ctx.row_bits()
    transposed: list[str] = []
    for module in (implbase.context, implbase.bases):
        real = module.transpose_bits

        def counted(sets, n, real=real, name=module.__name__):
            if list(sets) == list(rows):
                transposed.append(name)
            return real(sets, n)

        monkeypatch.setattr(module, "transpose_bits", counted)
    build_cdub(ctx)
    # the standardness check builds the column memo, and the walk reads it
    assert transposed == ["implbase.context"]


def per_attribute_sorted_cdub(ctx: Context) -> list[tuple[int, int]]:
    """The cdub pairs built the long way: each attribute's premises sorted
    into lectic order, then merged in first-seen order."""
    n = ctx.universe.size
    premises = [sorted(found, key=lambda b: lectic_key(b, n)) for found in premise_families(ctx)]
    return list(_merge_pairs([(lhs, 1 << m) for m in range(n) for lhs in premises[m]]).items())


@settings(max_examples=80, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 10),
    hierarchy=st.booleans(),
)
def test_cdub_pairs_match_the_per_attribute_sorted_reference(ctx_seed, attributes, hierarchy):
    make = hierarchy_context if hierarchy else random_standard_context
    ctx = make(random.Random(ctx_seed), attributes)
    assert list(build_cdub(unseen(ctx)).pairs()) == per_attribute_sorted_cdub(ctx)


def test_a_cold_search_keys_each_cdub_pair_once(monkeypatch):
    keyed: list[int] = []
    real = implbase.bits.lectic_keys

    def counted(sets, size):
        keyed.extend(sets)
        return real(sets, size)

    monkeypatch.setattr(implbase.bits, "lectic_keys", counted)
    ctx = gen_synthetic(15, 19, 0.3, 0)
    pairs = _search(ctx).cdub.pairs()
    assert sorted(keyed) == sorted(lhs for lhs, _ in pairs)
    # a premise of several attributes is one pair: sorting the premises
    # would key several times as many sets
    assert sum(map(len, premise_families(ctx))) > 2 * len(pairs)


def test_cold_dg_equals_warm_dg():
    rng = random.Random(72)
    for _ in range(10):
        ctx = hierarchy_context(rng, rng.randint(2, 9))
        cold = build_dg(unseen(ctx))
        build_cdub(ctx)
        assert build_dg(ctx) == cold


# The search keeps each cdub lhs's closure beside its pair, and build_dg
# starts its derivation from those closures; enumerate_pseudo_closed
# computes them by rounds to a fixpoint, and both must list the same sets.


def assert_kept_closures_hold(ctx: Context) -> None:
    found = _search(unseen(ctx))
    pairs = found.cdub.pairs()
    assert found.closures == [ctx.closure_bits(lhs) for lhs, _ in pairs]
    by_rounds = [(w.pseudo_closed.bits, w.closure.bits) for w in enumerate_pseudo_closed(found.cdub)]
    assert _pseudo_closed(found.cdub, found.closures) == by_rounds


def tall_context(rng: random.Random) -> Context:
    """A uniform standard context of more than 64 objects: 150-400 drawn
    objects over 12-16 attributes keep that many through standardisation,
    so extents are wider than a machine word."""
    while True:
        try:
            return gen_synthetic(
                rng.randint(150, 400), rng.randint(12, 16), 0.3, rng.getrandbits(32)
            )
        except DegenerateContext:
            continue


@settings(max_examples=80, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(1, 12),
    shape=st.sampled_from(["hierarchy", "uniform", "tall"]),
    objects=st.integers(3, 150),
)
def test_the_kept_closures_are_the_lhs_closures(ctx_seed, attributes, shape, objects):
    rng = random.Random(ctx_seed)
    if shape == "hierarchy":
        ctx = hierarchy_context(rng, attributes)
    elif shape == "uniform":
        ctx = random_standard_context(rng, attributes, objects=objects)
    else:
        ctx = tall_context(rng)
    assert_kept_closures_hold(ctx)


# the tall context has 162 objects after standardisation: extents wider
# than a machine word and not a whole number of bytes
@pytest.mark.parametrize("shape", [(60, 32, 0.3), (300, 14, 0.3)], ids=["wide", "tall"])
def test_the_kept_closures_are_the_lhs_closures_on_a_large_context(shape):
    assert_kept_closures_hold(gen_synthetic(*shape, 1))


@pytest.fixture
def rounds(monkeypatch) -> list[bool]:
    """The ``ordered`` flag of every sliced round, from bases.py and from
    the fixpoint in bits.py."""
    flags: list[bool] = []
    real = implbase.bits.sliced_round

    def counted(cols, sliced, ordered):
        flags.append(ordered)
        return real(cols, sliced, ordered)

    monkeypatch.setattr(implbase.bases, "sliced_round", counted)
    monkeypatch.setattr(implbase.bits, "sliced_round", counted)
    return flags


def test_the_builders_slice_the_cdub_pairs_once(slicings, rounds):
    ctx = unseen(gen_synthetic(15, 19, 0.3, 0))
    build_cdub(ctx)
    assert slicings == []  # the cdub alone pays for no derivation
    build_dbasis(ctx)
    build_dg(ctx)
    assert list(map(id, slicings)) == [id(_search(ctx).cdub.pairs())]
    # the closures come from the search: the fixpoint of step 3 runs
    # in-order rounds only
    assert rounds and all(rounds)


# -- the pseudo-closed derivation against the subset lattice ------------------------
#
# build_dg and enumerate_pseudo_closed share one derivation of the
# pseudo-closed sets from a list of implications.  The loop below
# tries every subset instead and serves as the reference.


def lattice_pseudo_closed(target: int, pairs) -> list[tuple[int, int]]:
    """All pseudo-closed subsets of ``target`` with their closures, bottom-up
    over the subset lattice: a candidate only needs the pseudo-closed sets of
    strictly smaller cardinality, which are already known."""
    submasks = []
    s = target
    while True:
        submasks.append(s)
        if s == 0:
            break
        s = (s - 1) & target
    submasks.sort(key=int.bit_count)
    family: list[tuple[int, int]] = []
    for s in submasks:
        closed = fixpoint_bits(s, pairs)
        if closed == s:
            continue
        if not any(p != s and p & s == p and pc & ~s for p, pc in family):
            family.append((s, closed))
    return family


@st.composite
def raw_bases(draw) -> Basis:
    """Up to 10 implications over up to 8 attributes: possibly none, with
    repeated left-hand sides and right-hand sides inside their left-hand side."""
    n = draw(st.integers(1, 8))
    u = Universe(size=n)
    mask = u.mask
    impls = []
    for _ in range(draw(st.integers(0, 10))):
        lhs = draw(st.integers(1, mask))
        if impls and draw(st.booleans()):
            lhs = draw(st.sampled_from(impls)).lhs.bits
        rhs = draw(st.integers(0, mask))
        if draw(st.booleans()):
            rhs &= lhs
        impls.append(Implication(AttributeSet(u, lhs), AttributeSet(u, rhs)))
    return Basis(impls, universe=u)


def shuffled_raw(basis: Basis, seed: int) -> Basis:
    impls = list(basis.implications)
    random.Random(seed).shuffle(impls)
    return Basis(impls, kind=BasisKind.RAW, universe=basis.universe)


def assert_walk_matches_lattice(basis: Basis) -> None:
    u = basis.universe
    family = lattice_pseudo_closed(u.mask, basis.pairs())
    family.sort(key=lambda pc: lectic_key(pc[0], u.size))
    got = [(w.pseudo_closed.bits, w.closure.bits) for w in enumerate_pseudo_closed(basis)]
    assert got == family


@settings(max_examples=40, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_pseudo_closed_walk_matches_the_lattice_on_built_bases(ctx_seed, attributes, seed):
    ctx = random_standard_context(random.Random(ctx_seed), attributes)
    for build in BUILDERS:
        basis = build(ctx)
        assert_walk_matches_lattice(basis)
        assert_walk_matches_lattice(shuffled_raw(basis, seed))


def raw_pairs(n: int, *pairs: tuple[int, int]) -> Basis:
    return Basis._from_pairs(pairs, BasisKind.RAW, universe=Universe(size=n))


@settings(max_examples=150, deadline=None)
@given(raw_bases())
@example(Basis([], universe=Universe(size=3)))
# chained bases, not direct: step 3 fires B_j, not K_j, and some K_j is
# reached only through further fenced firings; in the lane of {1, 4},
# {1} -> {2} reaches its K = {1, 2, 3} only through {2} -> {3}
@example(raw_pairs(4, (1, 2), (2, 4), (0b101, 8)))
@example(raw_pairs(5, (1, 2), (2, 4), (4, 8), (0b1001, 16), (0b10010, 1)))
@example(raw_pairs(5, (0b10010, 1), (0b1001, 16), (4, 8), (2, 4), (1, 2)))
def test_pseudo_closed_walk_matches_the_lattice_on_raw_bases(basis):
    assert_walk_matches_lattice(basis)


# -- in-order entailment against the simultaneous rounds --------------------------------
#
# _entails grows the lhs of one basis in in-order rounds under the other, in
# the lanes that same-lhs subsumption leaves.  The loop below is the earlier
# form: every lane, simultaneous rounds.  Both must give the same verdict, and
# the in-order form never needs more rounds.


def simultaneous_entails(basis: Basis, other: Basis, rounds: list[int]) -> bool:
    n = basis.universe.size
    sliced = slice_pairs(other.pairs())
    cols = transpose_bits([lhs for lhs, _ in basis.pairs()], n)
    need = transpose_bits([rhs for _, rhs in basis.pairs()], n)
    while True:
        if not any(w & ~c for w, c in zip(need, cols)):
            return True
        grown = sliced_round(cols, sliced, ordered=False)
        rounds.append(1)
        if grown == cols:
            return False
        cols = grown


def simultaneous_check_equiv(b1: Basis, b2: Basis, rounds: list[int]) -> bool:
    return simultaneous_entails(b1, b2, rounds) and simultaneous_entails(b2, b1, rounds)


def check_equiv_rounds(b1: Basis, b2: Basis) -> tuple[bool, int, int]:
    """The verdict with the rounds of check_equiv and of the simultaneous
    reference; the two verdicts must agree."""
    rounds: list[int] = []

    def counted(cols, sliced, ordered):
        assert ordered
        rounds.append(1)
        return sliced_round(cols, sliced, ordered)

    # a cold memo: a verdict derived from earlier ones would count no round
    implbase.bases._sliced.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(implbase.bases, "sliced_round", counted)
        got = check_equiv(b1, b2)
    reference: list[int] = []
    assert got == simultaneous_check_equiv(b1, b2, reference)
    return got, len(rounds), len(reference)


def equiv_family(bases: list[Basis], drop: int) -> list[Basis]:
    """The bases, each retagged raw, and each with one implication dropped."""
    return (
        bases
        + [retagged_raw(b) for b in bases]
        + [without(b, drop % len(b)) for b in bases if len(b)]
    )


@settings(max_examples=40, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 8),
    drop=st.integers(0, 2**16),
    raw=raw_bases(),
    seed=st.integers(0, 2**16),
)
def test_in_order_entailment_matches_the_simultaneous_rounds(
    ctx_seed, attributes, drop, raw, seed
):
    ctx = random_standard_context(random.Random(ctx_seed), attributes)
    built = equiv_family([build(ctx) for build in BUILDERS], drop)
    raws = equiv_family([raw, shuffled_raw(raw, seed)], drop)
    for family in (built, raws):
        for b1 in family:
            for b2 in family:
                got, in_order, simultaneous = check_equiv_rounds(b1, b2)
                assert got == scalar_check_equiv(b1, b2)
                assert in_order <= simultaneous


def test_in_order_entailment_saves_rounds_on_uniform_contexts():
    in_order = simultaneous = 0
    for seed in range(3):
        bases = [build(gen_synthetic(15, 19, 0.3, seed)) for build in BUILDERS]
        for i, b1 in enumerate(bases):
            for b2 in bases[i + 1 :]:
                got, ours, theirs = check_equiv_rounds(b1, b2)
                assert got
                in_order += ours
                simultaneous += theirs
    assert in_order < simultaneous


# -- rounds skipped where their result is known -------------------------------------------
#
# _entails settles a lane with no round when the other basis has a pair of
# the same lhs whose rhs, with the lhs, holds the lane's rhs; the dg
# derivation runs its fenced implications in ascending order of closure size.


def altered(bases: list[Basis], drop: int) -> list[Basis]:
    """Each basis retagged raw twice over: with the lowest attribute of one
    rhs removed, and with the lowest attribute outside one lhs added."""
    out = []
    for basis in bases:
        if not len(basis):
            continue
        at = drop % len(basis)
        lhs, rhs = basis.pairs()[at]
        outside = basis.universe.mask & ~lhs
        for pair in ((lhs, rhs & (rhs - 1)), (lhs | (outside & -outside), rhs)):
            if pair != (lhs, rhs):
                pairs = list(basis.pairs())
                pairs[at] = pair
                out.append(Basis._from_pairs(pairs, BasisKind.RAW, universe=basis.universe))
    return out


@settings(max_examples=40, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 8),
    drop=st.integers(0, 2**16),
    raw=raw_bases(),
    seed=st.integers(0, 2**16),
)
def test_verdicts_with_subsumed_lanes_match_the_scalar_closures(
    ctx_seed, attributes, drop, raw, seed
):
    # a shrunk rhs is settled by the pair of the same lhs it was cut from,
    # and that pair is not settled by the shrunk one; a pair whose lhs grew
    # shares its rhs with a pair of a smaller lhs, which it must not settle
    implbase.bases._sliced.cache_clear()
    ctx = random_standard_context(random.Random(ctx_seed), attributes)
    built = [build(ctx) for build in BUILDERS]
    raws = [raw, shuffled_raw(raw, seed)]
    for bases in (built, raws):
        family = equiv_family(bases, drop) + altered(bases, drop)
        for b1 in family:
            for b2 in family:
                assert check_equiv(b1, b2) == scalar_check_equiv(b1, b2)


def test_the_cdub_settles_its_dbasis_without_a_round(monkeypatch, rounds):
    calls: list[tuple[BasisKind, BasisKind, int]] = []
    real = implbase.bases._entails

    def counted(basis, other, record):
        start = len(rounds)
        got = real(basis, other, record)
        calls.append((basis.kind, other.kind, len(rounds) - start))
        return got

    monkeypatch.setattr(implbase.bases, "_entails", counted)
    for seed in range(3):
        ctx = gen_synthetic(15, 19, 0.3, seed)
        implbase.bases._sliced.cache_clear()
        calls.clear()
        assert check_equiv(build_cdub(ctx), build_dbasis(ctx))
        assert calls[1] == (BasisKind.DBASIS, BasisKind.CDUB, 0)


def cdub_order_fenced_rounds(ctx: Context, rounds: list[bool]) -> int:
    """The rounds of the fenced fixpoint of the dg derivation with the
    implications in cdub order, each fence column after its lhs columns and
    marking exactly the lanes whose closure strictly holds the
    implication's."""
    found = _search(ctx)
    n = ctx.universe.size
    ks = found.closures
    fences: list[int] = []
    fenced = []
    for (lhs, rhs), k in zip(slice_pairs(found.cdub.pairs()), ks):
        allowed = sum(1 << q for q, kq in enumerate(ks) if k & kq == k and k != kq)
        if allowed:
            fenced.append((lhs + (n + len(fences),), rhs))
            fences.append(allowed)
    cols = transpose_bits([lhs for lhs, _ in found.cdub.pairs()], n)
    start = len(rounds)
    sliced_fixpoint(cols + fences, fenced)
    return len(rounds) - start


def test_the_dg_fixpoint_takes_no_more_rounds_than_in_cdub_order(rounds):
    ours = theirs = 0
    for seed in range(3):
        ctx = unseen(gen_synthetic(15, 19, 0.3, seed))
        build_cdub(ctx)
        rounds.clear()
        build_dg(ctx)
        got, reference = len(rounds), cdub_order_fenced_rounds(ctx, rounds)
        assert got <= reference
        ours += got
        theirs += reference
    assert ours < theirs


# -- repeat checks reuse their inputs ---------------------------------------------------


@pytest.fixture
def transposes(monkeypatch) -> list[int]:
    """The width of every transpose from bases.py and from the Basis memos."""
    calls: list[int] = []
    real = implbase.bits.transpose_bits

    def counted(sets, n):
        calls.append(n)
        return real(sets, n)

    monkeypatch.setattr(implbase.bases, "transpose_bits", counted)
    monkeypatch.setattr(implbase.sets, "transpose_bits", counted)
    return calls


def test_a_repeat_check_equiv_transposes_nothing(transposes, ex51):
    implbase.bases._sliced.cache_clear()
    n = ex51.universe.size
    b1, b2, b3 = build_cdub(ex51), build_dg(ex51), build_dbasis(ex51)
    transposes.clear()
    assert check_equiv(b1, b2)
    # the lhs and part columns of each entailment with lanes left: the cdub
    # has two against the dg, the dg one against the cdub
    assert transposes == [n] * 4
    transposes.clear()
    assert check_equiv(b1, b2) and check_equiv(b2, b1)
    assert transposes == []
    # the cdub settles its dbasis with no lane left, so only the cdub's
    # lanes against the dbasis are transposed
    assert check_equiv(b1, b3)
    assert transposes == [n] * 2
    transposes.clear()
    assert check_equiv(b3, b1) and check_equiv(b3, b2)
    assert transposes == []


def test_a_pair_order_check_builds_the_cdub_rhs_map_once(monkeypatch):
    implbase.bases._sliced.cache_clear()
    bases = [build(unseen(gen_synthetic(15, 19, 0.3, 0))) for build in BUILDERS]
    built: list[BasisKind] = []
    read: list[tuple[BasisKind, dict[int, int]]] = []
    real_map, real_entails = implbase.bases._merge_pairs, implbase.bases._entails
    kinds = {id(basis.pairs()): basis.kind for basis in bases}

    def mapped(pairs):
        built.append(kinds[id(pairs)])
        return real_map(pairs)

    def counted(basis, other, record):
        got = real_entails(basis, other, record)
        read.append((other.kind, record.merged))
        return got

    monkeypatch.setattr(implbase.bases, "_merge_pairs", mapped)
    monkeypatch.setattr(implbase.bases, "_entails", counted)
    check_pairs(bases)
    # the dbasis and the dg each entail once under the cdub, which builds
    # its map on the first and keeps it for the second
    assert built == [BasisKind.DBASIS, BasisKind.CDUB, BasisKind.DG]
    against = [merged for kind, merged in read if kind is BasisKind.CDUB]
    assert len(against) == 2 and against[0] is against[1]
    assert against[0] == dict(bases[0].pairs())


def test_a_verdict_decided_on_one_compacted_lane():
    # the first tail pair of the dbasis whose lhs closure is not the
    # universe gains an attribute outside that closure; same-lhs subsumption
    # settles every other lane against the cdub, so the one round runs on
    # the single lane left
    ctx = gen_synthetic(15, 19, 0.3, 0)
    cdub, dbasis = build_cdub(ctx), build_dbasis(ctx)
    pairs = list(dbasis.pairs())
    for at in range(dbasis.sigma0_len, len(pairs)):
        lhs, rhs = pairs[at]
        outside = ctx.universe.mask & ~fixpoint_bits(lhs, cdub.pairs())
        if outside:
            pairs[at] = (lhs, rhs | (outside & -outside))
            break
    mutated = Basis._from_pairs(pairs, BasisKind.RAW, universe=ctx.universe)
    lanes: list[int] = []
    real = implbase.bases.transpose_bits

    def counted(sets, n):
        lanes.append(len(sets))
        return real(sets, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(implbase.bases, "transpose_bits", counted)
        for b1, b2 in ((mutated, cdub), (cdub, mutated)):
            implbase.bases._sliced.cache_clear()
            assert not check_equiv(b1, b2)
            assert not scalar_check_equiv(b1, b2)
    # the lhs and part columns of one lane of 288; in the second order the
    # cdub first shows 21 lanes against the mutated basis, which entails it
    assert len(mutated) == 288
    assert lanes == [1, 1, 21, 21, 1, 1]


def test_a_repeat_direct_witness_at_one_policy_transposes_nothing(transposes):
    # the width is the whole policy: its candidates are drawn and transposed
    # once, for the witness and the scope alike, while the width stays among
    # the last eight checked
    implbase.bases._candidates.cache_clear()
    wide, wider = chain(19), chain(20)
    u = wide.universe
    direct = Basis([Implication(u.subset(["m0"]), u.subset(["m1"]))], universe=u)
    want = scalar_direct_witness(wide)
    for basis in (wide, wider, wide):
        assert witness_bits(direct_witness(basis)) == scalar_direct_witness(basis)
    assert transposes == [19, 20]
    transposes.clear()
    assert witness_bits(direct_witness(wide)) == want
    assert witness_bits(direct_witness(retagged_raw(wide))) == want
    assert direct_witness(direct) is None
    assert direct_scope(19) == f"sampled, {SAMPLES} sets, seed 0"
    assert transposes == []
    # seven more widths fill the memo's eight places and evict width 19,
    # the oldest, while width 20, read again meanwhile, stays
    for width in range(21, 28):
        direct_witness(wider)
        assert witness_bits(direct_witness(chain(width))) == scalar_direct_witness(chain(width))
    assert transposes == list(range(21, 28))
    transposes.clear()
    assert witness_bits(direct_witness(wider)) == scalar_direct_witness(wider)
    assert transposes == []
    assert witness_bits(direct_witness(wide)) == want
    assert transposes == [19]


@pytest.mark.parametrize("width", [*range(3, EXHAUSTIVE_LIMIT + 1), 13, 19, 40, 64, 65, 70])
def test_a_witness_read_back_from_the_columns_is_the_scalar_one(width):
    rng = random.Random(width)
    bases = [chain(width), retagged_raw(chain(width)), *short_bases(rng, width)]
    seen = 0
    for basis in bases:
        want = scalar_direct_witness(basis)
        assert witness_bits(direct_witness(basis)) == want
        seen += want is not None
    # chain(width) is not direct, so at least its two kinds have a witness
    assert seen >= 2


@pytest.fixture
def slicings(monkeypatch) -> list[tuple[tuple[int, int], ...]]:
    """The pairs of every basis bases.py slices, from an empty memo on."""
    calls: list[tuple[tuple[int, int], ...]] = []
    real = implbase.bits.slice_pairs

    def counted(pairs):
        calls.append(pairs)
        return real(pairs)

    monkeypatch.setattr(implbase.bases, "slice_pairs", counted)
    implbase.bases._sliced.cache_clear()
    return calls


def check_pairs(bases: list[Basis]) -> None:
    """Each pair of one context's bases equivalent, in pair order."""
    for i, b1 in enumerate(bases):
        for b2 in bases[i + 1 :]:
            assert check_equiv(b1, b2)


def check_sequence(bases: list[Basis]) -> None:
    """What ``check`` verifies on one context's bases: each pair equivalent,
    then each basis direct."""
    check_pairs(bases)
    for basis in bases:
        direct_witness(basis)


def test_one_check_slices_each_basis_once(slicings):
    ctx = unseen(gen_synthetic(15, 19, 0.3, 0))
    bases = [build(ctx) for build in BUILDERS]
    check_sequence(bases)
    # the derivations slice the cdub, and the check slices the other two;
    # three equivalences and three directness checks slice twice each
    # without the memo
    assert len(slicings) == 3
    assert sorted(map(id, slicings)) == sorted(id(basis.pairs()) for basis in bases)


class WeaklyReferenced(Basis):
    """A basis that a weak reference can point at."""

    __slots__ = ("__weakref__",)


def test_the_sliced_memo_lets_an_earlier_context_bases_go():
    def checked(seed: int) -> list[weakref.ref]:
        ctx = gen_synthetic(15, 19, 0.3, seed)
        bases = [
            WeaklyReferenced._from_pairs(b.pairs(), b.kind, b.sigma0_len, universe=b.universe)
            for b in (build(ctx) for build in BUILDERS)
        ]
        check_sequence(bases)
        return [weakref.ref(basis) for basis in bases]

    first = checked(1)
    gc.collect()
    # the memo holds the last three: the search's cdub, whose entry the
    # caller's equal copy hits, and the dbasis and dg copies
    assert first[0]() is None
    assert first[1]() is not None and first[2]() is not None
    checked(2)
    gc.collect()
    assert all(ref() is None for ref in first)


# -- minimal transversals against brute force and Berge ---------------------------


def brute_minimal_transversals(edges: list[int], n: int) -> set[int]:
    """Every set over ``n`` attributes that hits each edge and stops doing so
    when any one of its attributes is removed."""

    def hits(s: int) -> bool:
        return all(s & edge for edge in edges)

    return {
        s
        for s in range(1 << n)
        if hits(s) and not any(hits(s & ~(1 << a)) for a in range(n) if s >> a & 1)
    }


def berge_minimal_transversals(edges: list[int]) -> list[int]:
    """Berge's antichain rebuild: one edge at a time, smallest first, the
    minimal transversals of the edges so far.

    An empty edge empties the antichain at once, and an edge that contains an
    earlier one is already hit by every set.  The sets that ``hit`` the edge
    stay; each ``t`` that misses it yields ``t | low`` per attribute ``low``
    of the edge, unless some ``h`` in ``hit`` lies inside.  As ``t`` misses
    the edge, that needs ``low`` in ``h`` and reads ``h ^ low <= t``.  The
    candidates are distinct and pairwise incomparable: ``t1 | l1 <= t2 | l2``
    gives ``t1 <= t2``, hence ``t1 == t2`` and ``l1 == l2``.
    """
    trans: list[int] = [0]
    for edge in sorted(set(edges), key=int.bit_count):
        hit: list[int] = []
        miss: list[int] = []
        for t in trans:
            (hit if t & edge else miss).append(t)
        if not miss:
            continue
        fresh: list[int] = []
        rest = edge
        while rest:
            low = rest & -rest
            own = [h ^ low for h in hit if h & low]
            fresh.extend(t | low for t in miss if not any(o & t == o for o in own))
            rest ^= low
        trans = hit + fresh
    return trans


@st.composite
def edge_families(draw) -> list[int]:
    """Up to 8 edges over 8 attributes, then up to 3 duplicates or supersets
    of them inserted at drawn positions."""
    edges = draw(st.lists(st.integers(0, 255), max_size=8))
    for _ in range(draw(st.integers(0, 3)) if edges else 0):
        edge = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), edge | draw(st.integers(0, 255)))
    return edges


@settings(max_examples=300, deadline=None)
@given(edge_families())
@example([])
@example([0])
@example([0b0110, 0])
@example([0b0011, 0b0011, 0b0111, 0b1000])
def test_minimal_transversals_match_brute_force(edges):
    got = minimal_transversals(edges)
    assert set(got) == brute_minimal_transversals(edges, 8)
    assert len(got) == len(set(got))
    assert not any(a != b and a & b == a for a in got for b in got)


@st.composite
def wide_edge_families(draw) -> list[int]:
    """Up to 24 edges over up to 24 attributes, empty edges among them, then
    up to 6 duplicates or supersets of them inserted at drawn positions."""
    full = (1 << draw(st.integers(1, 24))) - 1
    count = draw(st.integers(0, 24))
    edges = draw(st.lists(st.integers(0, full), min_size=count, max_size=count))
    for _ in range(draw(st.integers(0, 6)) if edges else 0):
        edge = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), edge | draw(st.integers(0, full)))
    return edges


@settings(max_examples=200, deadline=None)
@given(wide_edge_families())
@example([0b11 << (2 * i) for i in range(12)])
@example([((1 << 24) - 1) & ~(1 << i) for i in range(15)] * 2)
@example([0b1010, 0, 0b1010, 0b1110])
def test_minimal_transversals_match_berge_on_wide_families(edges):
    got = minimal_transversals(edges)
    assert len(got) == len(set(got))
    assert set(got) == set(berge_minimal_transversals(edges))


@st.composite
def many_edge_families(draw) -> list[int]:
    """25 to 40 distinct nonempty edges over 8 to 20 attributes, then up to
    6 duplicates or supersets of them inserted at drawn positions: the edge
    masks of the search pass the 24 bits that ``bit_indices`` reads by
    table."""
    full = (1 << draw(st.integers(8, 20))) - 1
    edges = draw(st.lists(st.integers(1, full), min_size=25, max_size=40, unique=True))
    for _ in range(draw(st.integers(0, 6))):
        edge = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), edge | draw(st.integers(0, full)))
    return edges


@settings(max_examples=60, deadline=None)
@given(many_edge_families())
@example([0b11 << (2 * i) for i in range(10)] + [1 << i for i in range(20, 40)])
@example([4095 & ~(1 << i | 1 << j) for i in range(12) for j in range(i + 1, 12)][:30])
def test_minimal_transversals_match_berge_past_the_byte_tables(edges):
    assert len(set(edges)) > 24
    got = minimal_transversals(edges)
    assert len(got) == len(set(got))
    assert set(got) == set(berge_minimal_transversals(edges))


@settings(max_examples=25, deadline=None)
@given(ctx_seed=st.integers(0, 2**32 - 1), attributes=st.integers(2, 22))
@example(ctx_seed=0, attributes=20)
@example(ctx_seed=1, attributes=22)
def test_premises_match_berge_on_every_attribute_of_hierarchy_contexts(ctx_seed, attributes):
    # the two examples search families of 28 and 33 distinct edges
    ctx = hierarchy_context(random.Random(ctx_seed), attributes)
    for m, premises in enumerate(premise_families(ctx)):
        assert len(premises) == len(set(premises))
        assert set(premises) == set(berge_minimal_transversals(premise_edges(ctx, m)))


def test_minimal_transversals_search_deeper_than_the_recursion_limit():
    # the one transversal of 1500 singleton edges takes a branch 1500 deep
    n = 1500
    assert n > sys.getrecursionlimit()
    assert minimal_transversals([1 << i for i in range(n)]) == [(1 << n) - 1]


# -- the free-set walk against the per-attribute searches --------------------------
#
# _search finds each proper premise once by a levelwise walk over the free
# sets.  MMCS and Berge, one search per attribute, list the same premises
# once per attribute they imply, and folded together give the merged pairs.


@settings(max_examples=120, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(1, 12),
    hierarchy=st.booleans(),
)
def test_search_equals_the_folded_per_attribute_searches(ctx_seed, attributes, hierarchy):
    make = hierarchy_context if hierarchy else random_standard_context
    ctx = make(random.Random(ctx_seed), attributes)
    got = dict(_search(ctx).cdub.pairs())
    assert got == folded_pairs(premise_families(ctx))
    if ctx.universe.size <= 8:
        assert got == folded_pairs(premise_families(ctx, berge_minimal_transversals))


@pytest.mark.parametrize(
    "shape, size",
    [((60, 32, 0.3), 11_617), ((50, 12, 0.6), None), ((24, 10, 0.7), None)],
    ids=["wide", "dense-50x12", "dense-24x10"],
)
def test_search_equals_the_folded_mmcs_families_on_wide_and_dense_contexts(shape, size):
    # the dense shapes have several free sets per (premise, attribute) unit
    ctx = gen_synthetic(*shape, 1)
    got = dict(_search(ctx).cdub.pairs())
    assert got == folded_pairs(premise_families(ctx))
    assert size is None or len(got) == size


def test_an_attribute_no_object_has_is_a_premise_of_every_other():
    # c has an empty extent, so its closure is the whole universe and no
    # free set holds it with another attribute
    ctx = ctx_from_rows(["a", "b", "c"], ["a b", "a", "b"])
    assert dict(_search(ctx).cdub.pairs()) == {0b100: 0b011} == folded_pairs(premise_families(ctx))


# -- the check path keeps what it has proven --------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 8),
    drop=st.integers(0, 2**16),
    order=st.randoms(use_true_random=False),
)
def test_verdicts_on_a_warm_memo_match_the_scalar_closures(ctx_seed, attributes, drop, order):
    # the memo keeps its records and their links from one call to the next,
    # so a later verdict may be derived from the earlier ones
    ctx = random_standard_context(random.Random(ctx_seed), attributes)
    family = equiv_family([build(ctx) for build in BUILDERS], drop)
    pairs = [(b1, b2) for b1 in family for b2 in family]
    order.shuffle(pairs)
    for b1, b2 in pairs:
        assert check_equiv(b1, b2) == scalar_check_equiv(b1, b2)


@settings(max_examples=40, deadline=None)
@given(
    ctx_seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 8),
    drop=st.integers(0, 2**16),
    picks=st.lists(st.integers(0, 8), min_size=3, max_size=3),
)
def test_direct_witness_cold_and_after_the_pair_checks_is_the_scalar_one(
    ctx_seed, attributes, drop, picks
):
    ctx = random_standard_context(random.Random(ctx_seed), attributes)
    family = equiv_family([build(ctx) for build in BUILDERS], drop)
    group = [family[i % len(family)] for i in picks]
    want = [scalar_direct_witness(basis) for basis in group]
    for basis, witness in zip(group, want):
        # cold: a record of its own, with no link and nothing kept
        implbase.bases._sliced.cache_clear()
        assert witness_bits(direct_witness(basis)) == witness
    # three records fit the memo: the pair checks link the equivalent ones,
    # the first witness of a class is tested at its root, which keeps the
    # closures when no lane is left unclosed, and later ones read them
    implbase.bases._sliced.cache_clear()
    for b1 in group:
        for b2 in group:
            check_equiv(b1, b2)
    for _ in range(2):
        for basis, witness in zip(group, want):
            assert witness_bits(direct_witness(basis)) == witness


def test_the_non_direct_dg_keeps_its_witness_under_the_kept_closures(ex51, rounds):
    implbase.bases._sliced.cache_clear()
    bases = [build(ex51) for build in BUILDERS]
    dg = bases[2]
    assert witness_bits(direct_witness(dg)) == aset(ex51.universe, "a d").bits
    implbase.bases._sliced.cache_clear()
    check_sequence(bases)
    # the cdub's check found the closures and its root, the dg's record,
    # keeps them, so the dg's own round is its only one
    rounds.clear()
    witness = direct_witness(dg)
    assert len(rounds) == 1
    assert str(witness) == "a d"
    assert witness_bits(witness) == scalar_direct_witness(dg)


def test_one_check_runs_four_entailments_and_four_directness_rounds(monkeypatch, rounds):
    implbase.bases._sliced.cache_clear()
    bases = [build(unseen(gen_synthetic(15, 19, 0.3, 0))) for build in BUILDERS]
    entailed: list[BasisKind] = []
    real = implbase.bases._entails

    def counted(basis, other, record):
        entailed.append(basis.kind)
        return real(basis, other, record)

    monkeypatch.setattr(implbase.bases, "_entails", counted)
    check_pairs(bases)
    # cdub~dbasis and cdub~dg run both directions and link the three bases,
    # so dbasis~dg is derived; the root is the record of the dg, the smallest
    assert entailed == [BasisKind.CDUB, BasisKind.DBASIS, BasisKind.CDUB, BasisKind.DG]
    records = [implbase.bases._sliced(basis) for basis in bases]
    assert [implbase.bases._root(record) for record in records] == [records[2]] * 3
    rounds.clear()
    assert [direct_witness(basis) is None for basis in bases] == [True, True, False]
    # each basis's own round, and one closedness round of the root, the dg,
    # which then keeps the closures for the other two
    assert rounds == [False, False, True, False]


def test_kept_closures_serve_only_the_candidate_columns_they_close(ex51, rounds):
    implbase.bases._sliced.cache_clear()
    cdub = build_cdub(ex51)
    assert direct_witness(cdub) is None
    rounds.clear()
    assert direct_witness(cdub) is None
    assert len(rounds) == 1
    # new candidate columns of the same sets: the kept closures are not
    # theirs, so the closedness round runs again and its result is kept
    implbase.bases._candidates.cache_clear()
    rounds.clear()
    assert direct_witness(cdub) is None
    assert len(rounds) == 2
    rounds.clear()
    assert direct_witness(cdub) is None
    assert len(rounds) == 1
