"""The six instrumented closure algorithms and their counter semantics."""

from __future__ import annotations

import inspect
import random
import time
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EX51_IMP, aset, planes_of, random_standard_context
from implbase.bases import build_cdub, build_dbasis, build_dg
from implbase.bits import memo, random_bits
from implbase.closure import (
    ClosureResult,
    Metrics,
    binary_closure,
    closure_classic,
    closure_direct,
    implies,
    lin_closure,
    lin_closure_direct,
    oracle_closure,
    pass_once,
    wild_closure,
    wild_closure_direct,
)
from implbase.errors import UniverseMismatch, WrongBasisKind
from implbase.sets import (
    AttributeSet,
    Basis,
    BasisKind,
    Implication,
    Universe,
    _merge_pairs,
    parse_basis,
    parse_implication,
    read_basis,
    render_basis,
)

CLASSIC_TRIO = (closure_classic, lin_closure, wild_closure)
DIRECT_TRIO = (closure_direct, lin_closure_direct, wild_closure_direct)

U4 = Universe(names=["a", "b", "c", "d"])


@pytest.fixture(scope="module")
def ex51_dbasis() -> Basis:
    return read_basis(EX51_IMP)


@pytest.fixture(scope="module")
def ex51_bases(ex51):
    return build_cdub(ex51), build_dbasis(ex51), build_dg(ex51)


def random_raw_basis(rng: random.Random, n: int) -> Basis:
    u = Universe(size=n)
    impls = []
    for _ in range(rng.randint(1, 3 * n)):
        lhs = 0
        while not lhs:
            lhs = rng.getrandbits(n)
        impls.append(
            Implication(AttributeSet(u, lhs), AttributeSet(u, rng.getrandbits(n)))
        )
    return Basis(impls, universe=u)


# -- reference operations -------------------------------------------------------


def test_pass_once_uses_the_input_only(ex51_dbasis):
    u = ex51_dbasis.universe
    out = pass_once(aset(u, "b d"), ex51_dbasis)
    # d -> c fires; b c -> a d must not, because c arrives in the same round
    assert str(out) == "b c d"


def test_oracle_closure_on_worked_example(ex51_dbasis):
    u = ex51_dbasis.universe
    assert str(oracle_closure(aset(u, "b d"), ex51_dbasis)) == "a b c d"
    assert str(oracle_closure(aset(u, "d"), ex51_dbasis)) == "c d"
    assert str(oracle_closure(AttributeSet(u, 0), ex51_dbasis)) == ""


def test_oracle_is_fixpoint_of_pass(ex51_dbasis):
    u = ex51_dbasis.universe
    for bits in range(16):
        x = AttributeSet(u, bits)
        closed = oracle_closure(x, ex51_dbasis)
        assert pass_once(closed, ex51_dbasis) == closed
        rounds = x
        for _ in range(u.size + 1):
            rounds = pass_once(rounds, ex51_dbasis)
        assert rounds == closed


def test_binary_closure_uses_prefix_only(ex51_dbasis):
    u = ex51_dbasis.universe
    assert str(binary_closure(aset(u, "d"), ex51_dbasis)) == "c d"
    assert str(binary_closure(aset(u, "b d"), ex51_dbasis)) == "b c d"
    assert str(binary_closure(aset(u, "a"), ex51_dbasis)) == "a"
    assert str(binary_closure(AttributeSet(u, 0), ex51_dbasis)) == ""


def test_binary_closure_requires_dbasis(ex51_bases):
    cdub, _, dg = ex51_bases
    for basis in (cdub, dg):
        with pytest.raises(WrongBasisKind):
            binary_closure(AttributeSet(basis.universe, 0), basis)


def test_binary_closure_follows_chains():
    basis = parse_basis(
        "# kind: dbasis\n# sigma0_len: 3\nuniverse: a b c d\n"
        "a -> b\nb -> c\nc -> d\n"
    )
    assert str(binary_closure(aset(basis.universe, "a"), basis)) == "a b c d"


# -- agreement with the oracle ----------------------------------------------------


def test_all_algorithms_agree_on_worked_example(ex51_bases):
    cdub, dbasis, dg = ex51_bases
    u = cdub.universe
    for bits in range(16):
        x = AttributeSet(u, bits)
        expected = oracle_closure(x, cdub)
        for basis in (cdub, dbasis, dg):
            assert oracle_closure(x, basis) == expected
            for algo in CLASSIC_TRIO:
                assert algo(x, basis).closure == expected
        for basis in (cdub, dbasis):
            for algo in DIRECT_TRIO:
                assert algo(x, basis).closure == expected


def test_classic_trio_agrees_with_oracle_on_random_bases():
    rng = random.Random(92)
    for _ in range(200):
        basis = random_raw_basis(rng, rng.randint(2, 9))
        u = basis.universe
        for _ in range(10):
            x = AttributeSet(u, rng.getrandbits(u.size))
            expected = oracle_closure(x, basis)
            for algo in CLASSIC_TRIO:
                assert algo(x, basis).closure == expected


def test_direct_trio_agrees_with_oracle_on_built_bases():
    rng = random.Random(93)
    for _ in range(25):
        ctx = random_standard_context(rng, rng.randint(3, 7))
        u = ctx.universe
        for basis in (build_cdub(ctx), build_dbasis(ctx)):
            for _ in range(20):
                x = AttributeSet(u, rng.getrandbits(u.size))
                expected = oracle_closure(x, basis)
                for algo in DIRECT_TRIO:
                    assert algo(x, basis).closure == expected


# -- counter semantics --------------------------------------------------------------


def test_classic_counter_trace():
    basis = parse_basis("universe: a b c d\na b -> c\nc -> d\n")
    result = closure_classic(aset(basis.universe, "a b"), basis)
    assert str(result.closure) == "a b c d"
    assert result.metrics.counters() == (2, 4, 2, 2)


def test_lin_counter_trace():
    basis = parse_basis("universe: a b c d\na b -> c\nc -> d\n")
    result = lin_closure(aset(basis.universe, "a b"), basis)
    assert str(result.closure) == "a b c d"
    assert result.metrics.counters() == (2, 6, 3, 4)


def test_wild_counter_trace():
    basis = parse_basis("universe: a b c d\na b -> c\nc -> d\n")
    result = wild_closure(aset(basis.universe, "a b"), basis)
    assert str(result.closure) == "a b c d"
    assert result.metrics.counters() == (2, 5, 2, 3)


def test_direct_counter_traces_on_worked_example(ex51_dbasis):
    u = ex51_dbasis.universe
    bd = aset(u, "b d")
    classic = closure_direct(bd, ex51_dbasis)
    assert classic.metrics.counters() == (4, 8, 4, 1)
    lin = lin_closure_direct(bd, ex51_dbasis)
    assert lin.metrics.counters() == (2, 3, 5, 3)
    wild = wild_closure_direct(bd, ex51_dbasis)
    assert wild.metrics.counters() == (2, 3, 2, 1)


def test_classic_trio_deps_law():
    # all three count exactly the implications whose lhs lands in the closure
    rng = random.Random(94)
    for _ in range(150):
        basis = random_raw_basis(rng, rng.randint(2, 8))
        u = basis.universe
        x = AttributeSet(u, rng.getrandbits(u.size))
        closed = oracle_closure(x, basis)
        expected = sum(1 for lhs, _ in basis.pairs() if lhs & closed.bits == lhs)
        for algo in CLASSIC_TRIO:
            assert algo(x, basis).metrics.deps == expected


def test_direct_pair_deps_law():
    rng = random.Random(95)
    for _ in range(25):
        ctx = random_standard_context(rng, rng.randint(3, 7))
        u = ctx.universe
        for basis in (build_cdub(ctx), build_dbasis(ctx)):
            for _ in range(10):
                x = AttributeSet(u, rng.getrandbits(u.size))
                a = lin_closure_direct(x, basis).metrics
                b = wild_closure_direct(x, basis).metrics
                assert a.deps == b.deps
                assert a.deps <= a.inner_loops or a.inner_loops == 0
                assert b.deps == b.inner_loops


def test_counters_are_deterministic(ex51_dbasis):
    u = ex51_dbasis.universe
    x = aset(u, "b d")
    for algo in (*CLASSIC_TRIO, *DIRECT_TRIO):
        first = algo(x, ex51_dbasis).metrics.counters()
        for _ in range(3):
            assert algo(x, ex51_dbasis).metrics.counters() == first


def test_single_round_algorithms_report_one_outer_tick(ex51_dbasis):
    u = ex51_dbasis.universe
    x = aset(u, "b d")
    assert closure_direct(x, ex51_dbasis).metrics.outer_loops == 1
    assert wild_closure_direct(x, ex51_dbasis).metrics.outer_loops == 1


def test_elapsed_time_is_recorded(ex51_dbasis):
    result = closure_direct(aset(ex51_dbasis.universe, "b d"), ex51_dbasis)
    assert result.metrics.elapsed_ns >= 0
    assert len(result.metrics.counters()) == 4  # wall time stays out


# -- the pre-closure bypass ---------------------------------------------------------


def test_lin_direct_without_preclose_undershoots(ex51_dbasis):
    u = ex51_dbasis.universe
    bd = aset(u, "b d")
    with_seed = lin_closure_direct(bd, ex51_dbasis, pre_close=True)
    without = lin_closure_direct(bd, ex51_dbasis, pre_close=False)
    assert str(with_seed.closure) == "a b c d"
    assert str(without.closure) == "b c d"


def test_wild_direct_without_preclose_undershoots(ex51_dbasis):
    u = ex51_dbasis.universe
    bd = aset(u, "b d")
    assert str(wild_closure_direct(bd, ex51_dbasis, pre_close=False).closure) == "b c d"


def test_preclose_is_a_no_op_for_cdub(ex51_bases):
    cdub, _, _ = ex51_bases
    u = cdub.universe
    for bits in range(16):
        x = AttributeSet(u, bits)
        assert (
            lin_closure_direct(x, cdub, pre_close=False).closure
            == lin_closure_direct(x, cdub, pre_close=True).closure
        )


# -- guards ---------------------------------------------------------------------------


def test_direct_algorithms_reject_wrong_kinds(ex51_bases):
    _, _, dg = ex51_bases
    raw = Basis(dg.implications, kind=BasisKind.RAW, universe=dg.universe)
    x = AttributeSet(dg.universe, 0)
    for basis in (dg, raw):
        for algo in DIRECT_TRIO:
            with pytest.raises(WrongBasisKind):
                algo(x, basis)


def test_universe_mismatch_is_rejected(ex51_dbasis):
    foreign = AttributeSet(Universe(size=4), 0)
    for algo in (*CLASSIC_TRIO, pass_once, oracle_closure, binary_closure):
        with pytest.raises(UniverseMismatch):
            algo(foreign, ex51_dbasis)


# -- entailment -----------------------------------------------------------------------


def test_implies_on_worked_example(ex51_bases):
    cdub, dbasis, dg = ex51_bases
    u = cdub.universe
    for basis in (cdub, dbasis, dg):
        assert implies(basis, parse_implication("b d -> a", u))
        assert implies(basis, parse_implication("d -> c", u))
        assert implies(basis, parse_implication("a b -> c d", u))
        assert not implies(basis, parse_implication("a -> b", u))
        assert not implies(basis, parse_implication("c -> d", u))


def test_implies_rejects_foreign_queries(ex51_dbasis):
    query = parse_implication("0 -> 1", Universe(size=4))
    with pytest.raises(UniverseMismatch):
        implies(ex51_dbasis, query)



# -- each algorithm as its own checked function, the form the entry replaced ----


def ref_check(x: AttributeSet, basis: Basis) -> None:
    if x.universe != basis.universe:
        raise UniverseMismatch("set universe differs from basis universe")


def ref_require_direct_kind(basis: Basis) -> None:
    if basis.kind not in (BasisKind.CDUB, BasisKind.DBASIS):
        raise WrongBasisKind(
            f"direct algorithms require a cdub or dbasis, not {basis.kind.value}"
        )


def ref_seed_bits(x: AttributeSet, basis: Basis, pre_close: bool) -> int:
    # the binary prefix applied in order until nothing changes, read from
    # neither the reach table nor its spread
    bits = x.bits
    if pre_close and basis.kind is BasisKind.DBASIS:
        grown = None
        while grown != bits:
            grown = bits
            for lhs, rhs in basis.pairs()[: basis.sigma0_len]:
                if lhs & bits:
                    bits |= rhs
    return bits


def ref_wild_round(
    bits: int, alive: int, pairs: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    # one subset test per alive implication against the input bits
    fire = 0
    grown = bits
    for j, (lhs, rhs) in enumerate(pairs):
        if alive >> j & 1 and lhs & bits == lhs:
            fire |= 1 << j
            grown |= rhs
    return grown, fire


def ref_closure_classic(x: AttributeSet, basis: Basis) -> ClosureResult:
    """Scan the remaining implications until a full pass changes nothing.

    An implication that fires is removed from further passes.  Additions are
    visible immediately, so later implications in the same pass see the grown
    set.
    """
    ref_check(x, basis)
    pairs = basis.pairs()
    deps = ops = inner = outer = 0
    bits = x.bits
    start = time.perf_counter_ns()
    remaining = list(range(len(pairs)))
    stable = False
    while not stable:
        outer += 1
        stable = True
        still: list[int] = []
        for idx in remaining:
            inner += 1
            lhs, rhs = pairs[idx]
            ops += 1  # subset test
            if lhs & bits == lhs:
                deps += 1
                ops += 1  # union
                bits |= rhs
                stable = False
            else:
                still.append(idx)
        remaining = still
    elapsed = time.perf_counter_ns() - start
    return ClosureResult(
        AttributeSet(x.universe, bits),
        Metrics(deps, ops, inner, outer, elapsed),
    )


def ref_lin_closure(x: AttributeSet, basis: Basis) -> ClosureResult:
    """Counting algorithm: each implication tracks how many of its lhs
    attributes are still missing and fires exactly when the count hits zero.

    A worklist holds attributes not yet propagated; each attribute enters it
    at most once.  The counters are kept as bit planes over the implication
    indices (:meth:`Basis.lhs_planes`), so taking an attribute lowers the
    count of every implication whose lhs holds it in one borrow chain over
    the planes, started from the attribute's lhs column.  The worklist is
    consumed in waves: every attribute of the current wave lowers its
    counts, then the implications whose count reached zero fire, and their
    new rhs attributes form the next wave.  The planes are precomputed
    outside the measured phase; the per-call copy of them is made inside it.
    """
    ref_check(x, basis)
    pairs = basis.pairs()
    lists = basis.attr_lists()
    deps = ops = inner = outer = 0
    start = time.perf_counter_ns()
    count = [lhs.bit_count() for lhs, _ in pairs]
    bits = x.bits
    update = x.bits
    while update:
        outer += 1
        low = update & -update
        update ^= low
        for idx in lists[low.bit_length() - 1]:
            inner += 1
            count[idx] -= 1
            if count[idx] == 0:
                deps += 1
                rhs = pairs[idx][1]
                add = rhs & ~bits
                ops += 1  # difference
                bits |= add
                ops += 1  # union
                update |= add
                ops += 1  # union
    elapsed = time.perf_counter_ns() - start
    return ClosureResult(
        AttributeSet(x.universe, bits),
        Metrics(deps, ops, inner, outer, elapsed),
    )


def ref_wild_closure(x: AttributeSet, basis: Basis) -> ClosureResult:
    """Per pass, fire *every* implication whose lhs avoids the complement of
    the current set, then keep only the untouched implications for the next
    pass.  Fired implications are never re-examined."""
    ref_check(x, basis)
    pairs = basis.pairs()
    deps = ops = inner = outer = 0
    bits = x.bits
    start = time.perf_counter_ns()
    alive = (1 << len(pairs)) - 1
    while True:
        outer += 1
        bits, fire = ref_wild_round(bits, alive, pairs)
        fired = fire.bit_count()
        deps += fired
        inner += fired
        ops += 1 + fired
        if not fire:
            break
        alive ^= fire
    elapsed = time.perf_counter_ns() - start
    return ClosureResult(
        AttributeSet(x.universe, bits),
        Metrics(deps, ops, inner, outer, elapsed),
    )


def ref_closure_direct(x: AttributeSet, basis: Basis) -> ClosureResult:
    """One in-order sweep with immediately visible additions.

    Correct on a ``cdub`` (direct) and on a ``dbasis`` (ordered direct, the
    binary prefix comes first); no pre-closure is needed for either.
    """
    ref_check(x, basis)
    ref_require_direct_kind(basis)
    pairs = basis.pairs()
    deps = ops = inner = 0
    bits = x.bits
    start = time.perf_counter_ns()
    for lhs, rhs in pairs:
        inner += 1
        ops += 1  # subset test
        if lhs & bits == lhs:
            deps += 1
            bits |= rhs
            ops += 1  # union
    elapsed = time.perf_counter_ns() - start
    return ClosureResult(
        AttributeSet(x.universe, bits),
        Metrics(deps, ops, inner, 1, elapsed),
    )


def ref_lin_closure_direct(
    x: AttributeSet, basis: Basis, *, pre_close: bool = True
) -> ClosureResult:
    """Counting algorithm with a single consumption of the worklist.

    For a ``dbasis`` the worklist starts from the binary-prefix closure of
    the input (precomputed, hence uncounted); for a ``cdub`` from the input
    itself.  The counters are bit planes over the implication indices, as in
    :func:`lin_closure`: each seed attribute lowers the counts of its
    implications in one borrow chain, and once the seed is taken the
    implications whose count reached zero fire together, the union of their
    right-hand sides read by rhs columns.  Fired right-hand sides never
    re-enter the worklist, and every implication whose lhs lies inside the
    seed fires once, whatever the order the seed is taken in.
    ``pre_close=False`` skips the seeding; on a ``dbasis``
    whose tail actually matters the result is then too small, which is
    exactly the behaviour the seeding exists to repair.
    """
    ref_check(x, basis)
    ref_require_direct_kind(basis)
    pairs = basis.pairs()
    lists = basis.attr_lists()
    seed = ref_seed_bits(x, basis, pre_close)
    deps = ops = inner = outer = 0
    start = time.perf_counter_ns()
    count = [lhs.bit_count() for lhs, _ in pairs]
    update = seed
    add = 0
    while update:
        outer += 1
        low = update & -update
        update ^= low
        for idx in lists[low.bit_length() - 1]:
            inner += 1
            count[idx] -= 1
            if count[idx] == 0:
                deps += 1
                add |= pairs[idx][1]
                ops += 1  # union
    bits = x.bits | add
    ops += 1  # final union
    elapsed = time.perf_counter_ns() - start
    return ClosureResult(
        AttributeSet(x.universe, bits),
        Metrics(deps, ops, inner, outer, elapsed),
    )


def ref_wild_closure_direct(
    x: AttributeSet, basis: Basis, *, pre_close: bool = True
) -> ClosureResult:
    """Single simultaneous round over a selection computed once.

    For a ``dbasis`` the input is first replaced by its binary-prefix closure
    (precomputed, hence uncounted).  Every implication whose lhs avoids the
    complement of that seed fires unconditionally; the selection is never
    re-evaluated against the grown set.
    """
    ref_check(x, basis)
    ref_require_direct_kind(basis)
    pairs = basis.pairs()
    seed = ref_seed_bits(x, basis, pre_close)
    start = time.perf_counter_ns()
    bits, fire = ref_wild_round(seed, (1 << len(pairs)) - 1, pairs)
    fired = fire.bit_count()
    elapsed = time.perf_counter_ns() - start
    return ClosureResult(
        AttributeSet(x.universe, bits),
        Metrics(fired, 1 + fired, fired, 1, elapsed),
    )


def ref_implies(basis: Basis, query: Implication) -> bool:
    """Does the basis entail ``query``?  True iff the query rhs is contained
    in the closure of the query lhs, computed with the cheapest algorithm
    valid for the basis kind: Wild's single round on a ``cdub`` or
    ``dbasis``, Wild's passes on any other kind.  The first call on a fresh
    basis builds its lhs and rhs columns (:meth:`Basis.attr_masks` and
    :meth:`Basis.rhs_masks`), which later calls share."""
    if query.universe != basis.universe:
        raise UniverseMismatch("query universe differs from basis universe")
    if basis.kind in (BasisKind.CDUB, BasisKind.DBASIS):
        closed = ref_wild_closure_direct(query.lhs, basis).closure
    else:
        closed = ref_wild_closure(query.lhs, basis).closure
    return query.rhs.bits & ~closed.bits == 0


REFERENCES = {
    closure_classic: ref_closure_classic,
    lin_closure: ref_lin_closure,
    wild_closure: ref_wild_closure,
    closure_direct: ref_closure_direct,
    lin_closure_direct: ref_lin_closure_direct,
    wild_closure_direct: ref_wild_closure_direct,
    implies: ref_implies,
}


def outcome(call):
    """The closure bits and four counters of a call, or its error and message."""
    try:
        result = call()
    except (UniverseMismatch, WrongBasisKind) as exc:
        return type(exc), str(exc)
    assert result.metrics.elapsed_ns >= 0
    return result.closure.universe, result.closure.bits, result.metrics.counters()


@settings(deadline=None)
@given(
    kind=st.sampled_from(["raw", "cdub", "dbasis", "dg"]),
    seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 7),
    pre_close=st.booleans(),
)
def test_every_algorithm_matches_its_checked_reference(kind, seed, attributes, pre_close):
    rng = random.Random(seed)
    if kind == "raw":
        basis = random_raw_basis(rng, attributes)
    else:
        builder = {"cdub": build_cdub, "dbasis": build_dbasis, "dg": build_dg}[kind]
        basis = builder(random_standard_context(rng, attributes))
    u = basis.universe
    queries = [AttributeSet(u, rng.getrandbits(u.size)) for _ in range(6)]
    queries += [AttributeSet(u, 0), u.full(), AttributeSet(Universe(size=u.size), 0)]
    for x in queries:
        for public in CLASSIC_TRIO + (closure_direct,):
            reference = REFERENCES[public]
            assert outcome(lambda: public(x, basis)) == outcome(lambda: reference(x, basis))
        for public in DIRECT_TRIO[1:]:
            reference = REFERENCES[public]
            assert outcome(lambda: public(x, basis, pre_close=pre_close)) == outcome(
                lambda: reference(x, basis, pre_close=pre_close)
            )
        if x.universe == u and x.bits:
            query = Implication(x, AttributeSet(u, rng.getrandbits(u.size)))
            entailed = query.rhs.bits & ~oracle_closure(x, basis).bits == 0
            assert implies(basis, query) == ref_implies(basis, query) == entailed


def sparse_raw_basis(rng: random.Random, n: int, m: int) -> Basis:
    """``m`` raw implications over ``n`` attributes with left-hand sides of
    one to three attributes, so that random queries fire some of them."""
    pairs = []
    for _ in range(m):
        lhs = sum(1 << a for a in rng.sample(range(n), rng.randint(1, 3)))
        rhs = sum(1 << a for a in rng.sample(range(n), rng.randint(0, 4)))
        pairs.append((lhs, rhs))
    return Basis._from_pairs(pairs, BasisKind.RAW, universe=Universe(size=n))


@pytest.mark.parametrize(
    "attributes, count", [(25, 80), (65, 70), (130, 140), (130, 40)], ids=lambda v: str(v)
)
def test_the_algorithms_match_their_references_on_wide_raw_bases(attributes, count):
    # past 24 attributes the missing sets leave the byte tables; the lhs and
    # rhs columns take the packed transpose up to 64 attributes, then the
    # one-set-per-call path for more than 64 implications and the word
    # read-back for fewer.  The raw pairs, merged and labelled cdub or with
    # their units first as a dbasis prefix, take the direct kernels there too.
    rng = random.Random(attributes * 1000 + count)
    basis = sparse_raw_basis(rng, attributes, count)
    u = basis.universe
    pairs = basis.pairs()
    units = [pair for pair in pairs if pair[0].bit_count() == 1]
    tail = [pair for pair in pairs if pair[0].bit_count() > 1]
    labelled = [
        Basis._from_pairs(_merge_pairs(pairs).items(), BasisKind.CDUB, universe=u),
        Basis._from_pairs(units + tail, BasisKind.DBASIS, len(units), universe=u),
    ]
    queries = [AttributeSet(u, random_bits(rng, attributes, p)) for p in (0.1, 0.3, 0.6, 0.9)]
    queries += [AttributeSet(u, 0), u.full()]
    fired = direct_fired = 0
    for x in queries:
        for public in CLASSIC_TRIO + DIRECT_TRIO:
            reference = REFERENCES[public]
            assert outcome(lambda: public(x, basis)) == outcome(lambda: reference(x, basis))
        fired += wild_closure(x, basis).metrics.deps
        for direct in labelled:
            assert outcome(lambda: closure_direct(x, direct)) == outcome(
                lambda: ref_closure_direct(x, direct)
            )
            for public in DIRECT_TRIO[1:]:
                reference = REFERENCES[public]
                for pre_close in (True, False):
                    got = outcome(lambda: public(x, direct, pre_close=pre_close))
                    assert got == outcome(lambda: reference(x, direct, pre_close=pre_close))
                    direct_fired += got[2][0]
            if x.bits:
                query = Implication(x, AttributeSet(u, random_bits(rng, attributes, 0.5)))
                assert implies(direct, query) == ref_implies(direct, query)
    assert fired > count and direct_fired > count


@pytest.mark.parametrize("public", list(REFERENCES), ids=lambda func: func.__name__)
def test_public_signatures_and_docstrings_are_kept(public):
    reference = REFERENCES[public]
    assert inspect.signature(public) == inspect.signature(reference)
    assert public.__doc__ == reference.__doc__
    assert public.__name__ == reference.__name__[len("ref_") :]


def test_a_foreign_set_is_refused_before_the_basis_kind(ex51_bases):
    _, _, dg = ex51_bases
    foreign = AttributeSet(Universe(size=4), 0)
    for algo in DIRECT_TRIO:
        with pytest.raises(UniverseMismatch, match="set universe differs"):
            algo(foreign, dg)


@pytest.mark.parametrize("seed", range(6))
def test_a_basis_read_from_text_answers_as_over_the_context_universe(seed):
    # a parsed basis has its own Universe object, equal to the context's:
    # the identity fast path of the entry must not change any answer
    rng = random.Random(seed)
    ctx = random_standard_context(rng, 4 + seed)
    u = ctx.universe
    foreign = Universe(size=u.size)
    queries = [AttributeSet(u, rng.getrandbits(u.size)) for _ in range(8)]
    queries += [AttributeSet(u, 0), u.full()]
    for build in (build_cdub, build_dbasis, build_dg):
        built = build(ctx)
        read = parse_basis(render_basis(built))
        assert read == built and read.universe is not built.universe
        for x in queries:
            for algo in CLASSIC_TRIO + DIRECT_TRIO:
                got = outcome(lambda: algo(x, read))
                assert got == outcome(lambda: algo(x, built))
                if got[0] is u:
                    closure = algo(x, read).closure
                    want = AttributeSet(u, closure.bits)
                    assert closure == want and hash(closure) == hash(want)
                    assert closure.universe is u
                with pytest.raises(UniverseMismatch):
                    algo(AttributeSet(foreign, x.bits), read)
            if x.bits:
                probe = Implication(x, AttributeSet(u, 1 << rng.randrange(u.size)))
                assert implies(read, probe) == implies(built, probe)
                with pytest.raises(UniverseMismatch):
                    implies(read, Implication(AttributeSet(foreign, x.bits), foreign.full()))


# -- closed-form counter laws ------------------------------------------------------


def occurrences(bits: int, basis: Basis) -> int:
    """Summed occurrence-list lengths of the attributes in ``bits``."""
    lists = basis.attr_lists()
    return sum(len(lists[a]) for a in range(basis.universe.size) if bits >> a & 1)


@settings(deadline=None)
@given(
    kind=st.sampled_from(["raw", "cdub", "dbasis", "dg"]),
    seed=st.integers(0, 2**32 - 1),
    attributes=st.integers(2, 7),
    pre_close=st.booleans(),
)
def test_counters_follow_their_closed_forms(kind, seed, attributes, pre_close):
    # what each counter must equal, read from the public results alone
    rng = random.Random(seed)
    if kind == "raw":
        basis = random_raw_basis(rng, attributes)
    else:
        builder = {"cdub": build_cdub, "dbasis": build_dbasis, "dg": build_dg}[kind]
        basis = builder(random_standard_context(rng, attributes))
    u = basis.universe
    m = len(basis)
    queries = [AttributeSet(u, rng.getrandbits(u.size)) for _ in range(6)]
    for x in queries + [AttributeSet(u, 0), AttributeSet(u, u.mask)]:
        closed = oracle_closure(x, basis).bits

        classic = closure_classic(x, basis).metrics
        assert classic.attribute_ops == classic.inner_loops + classic.deps
        assert m <= classic.inner_loops <= m * classic.outer_loops
        # every pass after the first rescans at least the never-fired ones
        assert classic.inner_loops - m >= (classic.outer_loops - 1) * (m - classic.deps)

        lin = lin_closure(x, basis).metrics
        assert lin.outer_loops == closed.bit_count()
        assert lin.inner_loops == occurrences(closed, basis)
        assert lin.attribute_ops == 3 * lin.deps

        wild = wild_closure(x, basis).metrics
        assert wild.inner_loops == wild.deps
        assert wild.attribute_ops == wild.outer_loops + wild.deps

        if basis.kind not in (BasisKind.CDUB, BasisKind.DBASIS):
            continue
        sweep = closure_direct(x, basis).metrics
        assert (sweep.inner_loops, sweep.outer_loops) == (m, 1)
        assert sweep.attribute_ops == m + sweep.deps

        seeded = pre_close and basis.kind is BasisKind.DBASIS
        start = binary_closure(x, basis).bits if seeded else x.bits
        once = lin_closure_direct(x, basis, pre_close=pre_close).metrics
        assert once.outer_loops == start.bit_count()
        assert once.inner_loops == occurrences(start, basis)
        assert once.attribute_ops == once.deps + 1

        one_round = wild_closure_direct(x, basis, pre_close=pre_close).metrics
        assert (one_round.inner_loops, one_round.outer_loops) == (one_round.deps, 1)
        assert one_round.attribute_ops == one_round.deps + 1


@pytest.mark.parametrize("algo", [lin_closure, lin_closure_direct], ids=lambda f: f.__name__)
def test_lhs_planes_are_built_once_and_never_mutated(monkeypatch, algo):
    basis = read_basis(EX51_IMP)
    builds: list[Basis] = []
    build = Basis.lhs_planes.__wrapped__

    def lhs_planes(self: Basis) -> tuple[int, ...]:
        builds.append(self)
        return build(self)

    monkeypatch.setattr(Basis, "lhs_planes", memo(lhs_planes))
    queries = [AttributeSet(basis.universe, bits) for bits in range(16)]
    first = [algo(x, basis).metrics.counters() for x in queries]
    assert builds == [basis]  # by the first call
    planes = basis.lhs_planes()
    assert [algo(x, basis).metrics.counters() for x in queries] == first
    assert builds == [basis]
    assert type(planes) is tuple and basis.lhs_planes() is planes
    assert planes == build(read_basis(EX51_IMP))


@pytest.mark.parametrize("algo", [lin_closure, lin_closure_direct], ids=lambda f: f.__name__)
def test_counting_starts_from_the_memoised_lhs_planes(monkeypatch, algo):
    basis = read_basis(EX51_IMP)
    full = AttributeSet(basis.universe, basis.universe.mask)
    assert algo(full, basis).metrics.deps == len(basis)

    def lhs_planes(self: Basis) -> tuple[int, ...]:
        # one more than each lhs holds, so no count can reach zero
        return planes_of([lhs.bit_count() + 1 for lhs, _ in self.pairs()])

    monkeypatch.setattr(Basis, "lhs_planes", memo(lhs_planes))
    assert algo(full, read_basis(EX51_IMP)).metrics.deps == 0
