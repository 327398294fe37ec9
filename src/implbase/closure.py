"""Closure of an attribute set under an implication basis.

Six instrumented algorithms compute ``clo(X)``, the smallest superset of
``X`` closed under every implication of a basis, plus a deliberately naive
fixpoint used as ground truth in tests.  The classic three (``closure_classic``,
``lin_closure``, ``wild_closure``) iterate until stable and are correct on
any basis.  The direct three perform a single round and are only correct on
bases with the matching structural guarantee: a ``cdub`` is direct (one
simultaneous round suffices), a ``dbasis`` is ordered direct (one in-order
round suffices, with the binary prefix pre-closed where the algorithm needs
it).  Direct variants refuse other kinds with :class:`WrongBasisKind`.

Every algorithm fills a :class:`Metrics` record:

* ``deps`` - number of implications processed, i.e. actually used to grow
  the result (for the counting variants: the counter reached zero),
* ``attribute_ops`` - number of attribute-set operations performed: unions,
  intersections, differences, and subset tests, one tick each regardless of
  universe width,
* ``inner_loops`` / ``outer_loops`` - iterations of the per-implication loop
  and of the enclosing loop (single-round algorithms report one outer tick
  per call),
* ``elapsed_ns`` - monotonic wall time of the computation phase only.
  Per-attribute occurrence lists and binary-prefix reachability are reusable
  precomputation and are excluded; the per-call counter initialisation of
  the counting variants is included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Sequence

from .errors import UniverseMismatch, WrongBasisKind
from .sets import AttributeSet, Basis, BasisKind, Implication

__all__ = [
    "Metrics",
    "ClosureResult",
    "pass_once",
    "binary_closure",
    "oracle_closure",
    "closure_classic",
    "lin_closure",
    "wild_closure",
    "closure_direct",
    "lin_closure_direct",
    "wild_closure_direct",
    "implies",
]

_DIRECT_KINDS = (BasisKind.CDUB, BasisKind.DBASIS)


@dataclass
class Metrics:
    """Hardware-independent counters plus wall time for one closure call."""

    deps: int = 0
    attribute_ops: int = 0
    inner_loops: int = 0
    outer_loops: int = 0
    elapsed_ns: int = 0

    def add(self, other: Metrics) -> None:
        self.deps += other.deps
        self.attribute_ops += other.attribute_ops
        self.inner_loops += other.inner_loops
        self.outer_loops += other.outer_loops
        self.elapsed_ns += other.elapsed_ns

    def counters(self) -> tuple[int, int, int, int]:
        """The deterministic part, excluding wall time."""
        return (self.deps, self.attribute_ops, self.inner_loops, self.outer_loops)


@dataclass(frozen=True)
class ClosureResult:
    closure: AttributeSet
    metrics: Metrics


def _check(x: AttributeSet, basis: Basis) -> None:
    if x.universe != basis.universe:
        raise UniverseMismatch("set universe differs from basis universe")


def _require_direct_kind(basis: Basis) -> None:
    if basis.kind not in _DIRECT_KINDS:
        raise WrongBasisKind(
            f"direct algorithms require a cdub or dbasis, not {basis.kind.value}"
        )


# -- uncounted reference operations ------------------------------------------


def pass_once(x: AttributeSet, basis: Basis) -> AttributeSet:
    """One simultaneous round: add the rhs of every implication whose lhs is
    contained in the *input*; additions never enable further firings within
    the same round."""
    _check(x, basis)
    bits = x.bits
    acc = 0
    for lhs, rhs in basis.pairs():
        if lhs & bits == lhs:
            acc |= rhs
    return AttributeSet(x.universe, bits | acc)


def _fixpoint_bits(bits: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Iterate simultaneous rounds until nothing changes."""
    while True:
        acc = 0
        for lhs, rhs in pairs:
            if lhs & bits == lhs:
                acc |= rhs
        nxt = bits | acc
        if nxt == bits:
            return bits
        bits = nxt


# -- bit-sliced kernels ---------------------------------------------------------
#
# Many attribute sets are processed at once by storing them column-wise: one
# int per attribute, whose bit ``q`` (lane ``q``) is set iff set ``q`` holds
# that attribute.  An implication then fires in every lane at once: its fire
# mask is the AND of its lhs columns, and that mask is ORed into its rhs
# columns.  Sliced pairs list attribute indices instead of bits; left-hand
# sides are never empty, so every AND has a first operand.


def _slice_pairs(
    pairs: tuple[tuple[int, int], ...],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Implications as ``(lhs indices, rhs indices)`` for the sliced kernels."""
    return [(_bit_indices(lhs), _bit_indices(rhs)) for lhs, rhs in pairs]


def _bit_indices(bits: int) -> tuple[int, ...]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _transpose_bits(sets: Sequence[int], n: int) -> list[int]:
    """Columns of a non-empty list of ``n``-attribute sets, set ``q`` in lane ``q``.

    One binary string per set, written last set first, so that the strided
    slice of attribute ``a`` reads as an int with set 0 in its lowest bit.
    """
    spec = f"0{n}b"
    text = "".join([format(bits, spec) for bits in reversed(sets)])
    return [int(text[n - 1 - a :: n], 2) for a in range(n)]


def _sliced_round(
    cols: list[int],
    sliced: list[tuple[tuple[int, ...], tuple[int, ...]]],
    ordered: bool,
) -> list[int]:
    """One round in every lane.  Simultaneous: every lhs is tested against the
    input columns.  Ordered: against the columns grown so far, as in one
    in-order sweep."""
    out = list(cols)
    src = out if ordered else cols
    get = src.__getitem__
    for lhs, rhs in sliced:
        fire = reduce(and_, map(get, lhs))
        if fire:
            for b in rhs:
                out[b] |= fire
    return out


def _unclosed_lanes(
    cols: list[int], sliced: list[tuple[tuple[int, ...], tuple[int, ...]]]
) -> int:
    """Lanes where some implication fires but misses part of its rhs."""
    bad = 0
    get = cols.__getitem__
    for lhs, rhs in sliced:
        fire = reduce(and_, map(get, lhs))
        if fire:
            for b in rhs:
                bad |= fire & ~cols[b]
    return bad


def oracle_closure(x: AttributeSet, basis: Basis) -> AttributeSet:
    """Ground-truth closure: :func:`pass_once` iterated to its fixpoint.

    Terminates after at most ``|universe|`` growing rounds plus one check.
    """
    _check(x, basis)
    return AttributeSet(x.universe, _fixpoint_bits(x.bits, basis.pairs()))


def binary_closure(x: AttributeSet, basis: Basis) -> AttributeSet:
    """Closure of ``x`` under the binary prefix of a ``dbasis`` only.

    Evaluated from reachability over the single-attribute implication graph,
    precomputed once per basis.  The empty set is already closed because no
    left-hand side is empty.
    """
    _check(x, basis)
    if basis.kind is not BasisKind.DBASIS:
        raise WrongBasisKind("the binary prefix is only defined for a dbasis")
    reach = basis.binary_reach()
    bits = x.bits
    out = 0
    rest = bits
    while rest:
        low = rest & -rest
        out |= reach[low.bit_length() - 1]
        rest ^= low
    return AttributeSet(x.universe, out | bits)


def _seed_bits(x: AttributeSet, basis: Basis, pre_close: bool) -> int:
    """Input bits for a direct run; pre-closed over the binary prefix for a
    ``dbasis``.  The pre-closure is reusable precomputation and is charged to
    neither the counters nor the clock."""
    if pre_close and basis.kind is BasisKind.DBASIS:
        return binary_closure(x, basis).bits
    return x.bits


# -- iterate-until-stable algorithms ------------------------------------------


def closure_classic(x: AttributeSet, basis: Basis) -> ClosureResult:
    """Scan the remaining implications until a full pass changes nothing.

    An implication that fires is removed from further passes.  Additions are
    visible immediately, so later implications in the same pass see the grown
    set.
    """
    _check(x, basis)
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


def lin_closure(x: AttributeSet, basis: Basis) -> ClosureResult:
    """Counting algorithm: each implication tracks how many of its lhs
    attributes are still missing and fires exactly when the count hits zero.

    A worklist holds attributes not yet propagated; each attribute enters it
    at most once.  The per-attribute occurrence lists are precomputed outside
    the measured phase; the per-call counters are initialised inside it.
    """
    _check(x, basis)
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


def wild_closure(x: AttributeSet, basis: Basis) -> ClosureResult:
    """Per pass, fire *every* implication whose lhs avoids the complement of
    the current set, then keep only the untouched implications for the next
    pass.  Fired implications are never re-examined."""
    _check(x, basis)
    pairs = basis.pairs()
    masks = basis.attr_masks()
    full = x.universe.mask
    deps = ops = inner = outer = 0
    bits = x.bits
    start = time.perf_counter_ns()
    alive = (1 << len(pairs)) - 1
    stable = False
    while not stable:
        outer += 1
        stable = True
        missing = full & ~bits
        ops += 1  # difference
        untouched = 0
        rest = missing
        while rest:
            low = rest & -rest
            untouched |= masks[low.bit_length() - 1]
            rest ^= low
        fire = alive & ~untouched
        rest = fire
        while rest:
            low = rest & -rest
            rest ^= low
            inner += 1
            deps += 1
            bits |= pairs[low.bit_length() - 1][1]
            ops += 1  # union
            stable = False
        alive &= untouched
    elapsed = time.perf_counter_ns() - start
    return ClosureResult(
        AttributeSet(x.universe, bits),
        Metrics(deps, ops, inner, outer, elapsed),
    )


# -- single-round algorithms ---------------------------------------------------


def closure_direct(x: AttributeSet, basis: Basis) -> ClosureResult:
    """One in-order sweep with immediately visible additions.

    Correct on a ``cdub`` (direct) and on a ``dbasis`` (ordered direct, the
    binary prefix comes first); no pre-closure is needed for either.
    """
    _check(x, basis)
    _require_direct_kind(basis)
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


def lin_closure_direct(
    x: AttributeSet, basis: Basis, *, pre_close: bool = True
) -> ClosureResult:
    """Counting algorithm with a single consumption of the worklist.

    For a ``dbasis`` the worklist starts from the binary-prefix closure of
    the input (precomputed, hence uncounted); for a ``cdub`` from the input
    itself.  Fired right-hand sides accumulate separately and never re-enter
    the worklist.  ``pre_close=False`` skips the seeding; on a ``dbasis``
    whose tail actually matters the result is then too small, which is
    exactly the behaviour the seeding exists to repair.
    """
    _check(x, basis)
    _require_direct_kind(basis)
    pairs = basis.pairs()
    lists = basis.attr_lists()
    seed = _seed_bits(x, basis, pre_close)
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


def wild_closure_direct(
    x: AttributeSet, basis: Basis, *, pre_close: bool = True
) -> ClosureResult:
    """Single simultaneous round over a selection computed once.

    For a ``dbasis`` the input is first replaced by its binary-prefix closure
    (precomputed, hence uncounted).  Every implication whose lhs avoids the
    complement of that seed fires unconditionally; the selection is never
    re-evaluated against the grown set.
    """
    _check(x, basis)
    _require_direct_kind(basis)
    pairs = basis.pairs()
    masks = basis.attr_masks()
    full = x.universe.mask
    seed = _seed_bits(x, basis, pre_close)
    deps = ops = inner = 0
    bits = seed
    start = time.perf_counter_ns()
    missing = full & ~bits
    ops += 1  # difference
    untouched = 0
    rest = missing
    while rest:
        low = rest & -rest
        untouched |= masks[low.bit_length() - 1]
        rest ^= low
    fire = ((1 << len(pairs)) - 1) & ~untouched
    rest = fire
    while rest:
        low = rest & -rest
        rest ^= low
        inner += 1
        deps += 1
        bits |= pairs[low.bit_length() - 1][1]
        ops += 1  # union
    elapsed = time.perf_counter_ns() - start
    return ClosureResult(
        AttributeSet(x.universe, bits),
        Metrics(deps, ops, inner, 1, elapsed),
    )


def implies(basis: Basis, query: Implication) -> bool:
    """Does the basis entail ``query``?  True iff the query rhs is contained
    in the closure of the query lhs, computed with the cheapest algorithm
    valid for the basis kind."""
    if query.universe != basis.universe:
        raise UniverseMismatch("query universe differs from basis universe")
    if basis.kind in _DIRECT_KINDS:
        closed = closure_direct(query.lhs, basis).closure
    else:
        closed = closure_classic(query.lhs, basis).closure
    return query.rhs.issubset(closed)
