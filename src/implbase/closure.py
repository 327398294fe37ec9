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
  and of the enclosing loop (classic-direct and wild-direct report one
  outer tick per call, lin-direct one per seed attribute),
* ``elapsed_ns`` - monotonic wall time of the computation phase only: the
  algorithm and its firings, nothing else.  The lhs sizes in bit planes,
  the lhs and rhs columns over the implication indices and binary-prefix
  reachability are reusable precomputation and are excluded; the per-call
  counter initialisation of the counting variants (a copy of the memoised
  planes) is included.

Each public algorithm is one call to a shared checked entry, which checks
the universe, refuses a non-direct kind for the single-round three, runs
the algorithm's private kernel on ``x.bits`` and wraps what it returns.
There are four timed kernels: ``_classic``, ``_lin``, ``_wild`` and
``_sweep``, classic-direct's in-order sweep.  A single-round algorithm is
the first round of its kernel: lin-direct is ``_lin``'s first wave and
wild-direct is ``_wild``'s first pass, each taken from the seed.  A kernel
has the signature ``(bits, basis[, once, pre_close])`` and returns the
tuple ``(closure_bits, deps, attribute_ops, inner_loops, outer_loops,
elapsed_ns)``.  It reads the basis's pairs or its lhs and rhs masks, the lhs
size planes and the pre-closed seed before starting its clock.

Inside the clock a kernel runs its loop and counts its firings (``deps``);
the other counters are closed forms of the loop's end state, computed after
the clock stops, and equal what a tick per step would count.  With ``m``
implications and ``|L(a)|`` the length of attribute ``a``'s occurrence list:

* classic-direct: ``inner = m``, ``outer = 1``, ``ops = m + deps``;
* lin-direct: ``outer = |seed|``, ``inner = sum of |L(a)|`` over the seed,
  ``ops = deps + 1`` (every seed attribute leaves the worklist once);
* lin: ``outer = |closure|``, ``inner = sum of |L(a)|`` over the closure,
  ``ops = 3 deps`` (every closure attribute passes through the worklist
  exactly once);
* lin and lin-direct keep their counters as bit planes over the implication
  indices and lower every count of ``L(a)`` in one borrow chain; ``inner``
  is the counters' total fall, read off the planes, which is the sum of
  ``|L(a)|`` because each occurrence lowers its count once;
* classic: ``inner`` grows by the number of implications left once per
  pass, and ``ops = inner + deps``;
* wild and wild-direct count once per pass, which their loops do anyway:
  ``ops`` keeps the paper's cost model of one difference per pass plus one
  union per fired implication, while the union itself is taken by rhs
  columns, each missing attribute tested once against the fire mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Sequence

from .bits import bit_indices, fixpoint_bits, round_bits, spread
from .errors import UniverseMismatch, WrongBasisKind
from .sets import AttributeSet, Basis, BasisKind, Implication, _trusted_set

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
    "ALGORITHMS",
]

_DIRECT_KINDS = (BasisKind.CDUB, BasisKind.DBASIS)

#: What a kernel returns: the closure bits, the four counters in
#: ``Metrics.counters()`` order, then the wall time.
_Run = tuple[int, int, int, int, int, int]


@dataclass
class Metrics:
    """Hardware-independent counters plus wall time for one closure call."""

    deps: int = 0
    attribute_ops: int = 0
    inner_loops: int = 0
    outer_loops: int = 0
    elapsed_ns: int = 0

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


# -- uncounted reference operations ------------------------------------------


def pass_once(x: AttributeSet, basis: Basis) -> AttributeSet:
    """One simultaneous round: add the rhs of every implication whose lhs is
    contained in the *input*; additions never enable further firings within
    the same round."""
    _check(x, basis)
    return AttributeSet(x.universe, round_bits(x.bits, basis.pairs()))


def oracle_closure(x: AttributeSet, basis: Basis) -> AttributeSet:
    """Ground-truth closure: :func:`pass_once` iterated to its fixpoint.

    Terminates after at most ``|universe|`` growing rounds plus one check.
    """
    _check(x, basis)
    return AttributeSet(x.universe, fixpoint_bits(x.bits, basis.pairs()))


def binary_closure(x: AttributeSet, basis: Basis) -> AttributeSet:
    """Closure of ``x`` under the binary prefix of a ``dbasis`` only.

    Evaluated from reachability over the single-attribute implication graph,
    precomputed once per basis.  The empty set is already closed because no
    left-hand side is empty.
    """
    _check(x, basis)
    if basis.kind is not BasisKind.DBASIS:
        raise WrongBasisKind("the binary prefix is only defined for a dbasis")
    return AttributeSet(x.universe, _seed_bits(x.bits, basis, True))


def _seed_bits(bits: int, basis: Basis, pre_close: bool) -> int:
    """Input bits for a direct run; pre-closed over the binary prefix for a
    ``dbasis``, where each attribute's reach holds the attribute, so the
    seed holds the input.  The pre-closure is reusable precomputation and is
    charged to neither the counters nor the clock."""
    if pre_close and basis.kind is BasisKind.DBASIS:
        return spread(bits, basis.binary_reach())
    return bits


def _closed(
    kernel: Callable[..., _Run], x: AttributeSet, basis: Basis, *args: bool, direct: bool = False
) -> ClosureResult:
    """The checked entry of all six algorithms: the universe check, the kind
    check of a ``direct`` (single-round) algorithm, then the kernel on the
    raw bits, its ``args`` passed on.

    The universes are compared by identity first, and the kernel's bits are
    wrapped without a second range check: they are the input's bits, which
    :class:`AttributeSet` checks, ORed with stored sides, which
    :class:`Basis` checks against its universe.
    """
    universe = x.universe
    if universe is not basis.universe and universe != basis.universe:
        raise UniverseMismatch("set universe differs from basis universe")
    if direct and basis.kind not in _DIRECT_KINDS:
        raise WrongBasisKind(f"direct algorithms require a cdub or dbasis, not {basis.kind.value}")
    bits, deps, ops, inner, outer, elapsed = kernel(x.bits, basis, *args)
    return ClosureResult(_trusted_set(universe, bits), Metrics(deps, ops, inner, outer, elapsed))


# -- iterate-until-stable algorithms ------------------------------------------


def closure_classic(x: AttributeSet, basis: Basis) -> ClosureResult:
    """Scan the remaining implications until a full pass changes nothing.

    An implication that fires is removed from further passes.  Additions are
    visible immediately, so later implications in the same pass see the grown
    set.
    """
    return _closed(_classic, x, basis)


def _classic(bits: int, basis: Basis) -> _Run:
    pairs = basis.pairs()
    deps = inner = outer = 0
    start = time.perf_counter_ns()
    remaining: Sequence[tuple[int, int]] = pairs
    stable = False
    while not stable:
        outer += 1
        inner += len(remaining)
        stable = True
        still: list[tuple[int, int]] = []
        for pair in remaining:
            lhs = pair[0]
            if lhs & bits == lhs:
                deps += 1
                bits |= pair[1]
                stable = False
            else:
                still.append(pair)
        remaining = still
    elapsed = time.perf_counter_ns() - start
    # one subset test per scanned implication, one union per firing
    return bits, deps, inner + deps, inner, outer, elapsed


def lin_closure(x: AttributeSet, basis: Basis) -> ClosureResult:
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
    return _closed(_lin, x, basis)


def _lin(bits: int, basis: Basis, once: bool = False, pre_close: bool = False) -> _Run:
    """LinClosure's worklist in waves.  Every closure attribute enters the
    worklist once, and every implication whose lhs lies inside the closure
    fires once, at its last lhs attribute.  So the closure and all four
    counters do not depend on the order in which the worklist is taken: a
    wave is first-in first-out order with the firings detected once per
    wave.  No count falls below zero, so the zero lanes of the planes are
    the implications whose count reached zero.

    With ``once`` the run stops after the first wave, which takes the seed
    (:func:`_seed_bits`): that is lin-direct.  The fired right-hand sides
    then never enter the worklist, so the worklist is the seed, taken once
    (``outer = |seed|``), and the cost model charges one union per firing
    plus one final union (``ops = deps + 1``) where lin charges a
    difference and two unions per firing."""
    masks = basis.attr_masks()
    rhs_masks = basis.rhs_masks()
    planes = basis.lhs_planes()
    full = basis.universe.mask
    alive = (1 << len(basis)) - 1
    seed = update = _seed_bits(bits, basis, pre_close)
    deps = 0
    start = time.perf_counter_ns()
    count = list(planes)
    while update:
        for a in bit_indices(update):
            borrow = masks[a]
            j = 0
            while borrow:
                plane = count[j]
                count[j] = plane ^ borrow
                borrow &= ~plane
                j += 1
        fired = alive & ~reduce(or_, count, 0)
        alive ^= fired
        deps += fired.bit_count()
        update = _rhs_union(full & ~bits, fired, rhs_masks)
        bits |= update
        if once:
            break
    elapsed = time.perf_counter_ns() - start
    if once:
        # one union per firing plus the final union
        return bits, deps, deps + 1, _fall(planes, count), seed.bit_count(), elapsed
    # only new attributes enter the worklist, so each closure attribute
    # leaves it once; a difference and two unions per firing
    return bits, deps, 3 * deps, _fall(planes, count), bits.bit_count(), elapsed


def _fall(planes: Sequence[int], count: Sequence[int]) -> int:
    """Inner-loop ticks of a counting run: the counters' total fall from
    ``planes`` to ``count``.  Each attribute taken from the worklist lowers
    the count of each implication in its occurrence list by one, so this is
    the summed lengths of the occurrence lists of the attributes taken."""
    falls = [(p.bit_count() - c.bit_count()) << j for j, (p, c) in enumerate(zip(planes, count))]
    return sum(falls)


def _rhs_union(missing: int, fire: int, rhs_masks: Sequence[int]) -> int:
    """The attributes of ``missing`` that the rhs of some implication in the
    fire mask holds.  Each missing attribute's rhs column is tested once
    against ``fire``, which gives the OR of the fired right-hand sides
    without taking each one out of ``fire``."""
    add = 0
    if fire:
        for b in bit_indices(missing):
            if fire & rhs_masks[b]:
                add |= 1 << b
    return add


def wild_closure(x: AttributeSet, basis: Basis) -> ClosureResult:
    """Per pass, fire *every* implication whose lhs avoids the complement of
    the current set, then keep only the untouched implications for the next
    pass.  Fired implications are never re-examined."""
    return _closed(_wild, x, basis)


def _wild(bits: int, basis: Basis, once: bool = False, pre_close: bool = False) -> _Run:
    """Wild's passes over columns of the implication indices.  A pass's
    selection ORs the lhs columns of the missing attributes: the ``alive``
    implications outside that OR fire.  Its union reads the rhs columns
    (:func:`_rhs_union`).  The paper's one difference plus one union per
    fired implication is charged per pass.

    With ``once`` the run stops after the first pass, over the seed
    (:func:`_seed_bits`): that is wild-direct, whose selection is never
    re-evaluated against the grown set.  One pass charges one outer tick
    and one difference, and one inner tick and one union per firing."""
    masks = basis.attr_masks()
    rhs_masks = basis.rhs_masks()
    full = basis.universe.mask
    alive = (1 << len(basis)) - 1
    bits = _seed_bits(bits, basis, pre_close)
    deps = ops = inner = outer = 0
    start = time.perf_counter_ns()
    while True:
        outer += 1
        missing = full & ~bits
        fire = alive & ~spread(missing, masks)
        bits |= _rhs_union(missing, fire, rhs_masks)
        fired = fire.bit_count()
        deps += fired
        inner += fired
        ops += 1 + fired
        if once or not fire:
            break
        alive ^= fire
    return bits, deps, ops, inner, outer, time.perf_counter_ns() - start


# -- single-round algorithms ---------------------------------------------------


def closure_direct(x: AttributeSet, basis: Basis) -> ClosureResult:
    """One in-order sweep with immediately visible additions.

    Correct on a ``cdub`` (direct) and on a ``dbasis`` (ordered direct, the
    binary prefix comes first); no pre-closure is needed for either.
    """
    return _closed(_sweep, x, basis, direct=True)


def _sweep(bits: int, basis: Basis) -> _Run:
    pairs = basis.pairs()
    deps = 0
    start = time.perf_counter_ns()
    for lhs, rhs in pairs:
        if lhs & bits == lhs:
            deps += 1
            bits |= rhs
    elapsed = time.perf_counter_ns() - start
    # one subset test per implication, one union per firing
    m = len(pairs)
    return bits, deps, m + deps, m, 1, elapsed


def lin_closure_direct(
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
    return _closed(_lin, x, basis, True, pre_close, direct=True)


def wild_closure_direct(
    x: AttributeSet, basis: Basis, *, pre_close: bool = True
) -> ClosureResult:
    """Single simultaneous round over a selection computed once.

    For a ``dbasis`` the input is first replaced by its binary-prefix closure
    (precomputed, hence uncounted).  Every implication whose lhs avoids the
    complement of that seed fires unconditionally; the selection is never
    re-evaluated against the grown set.
    """
    return _closed(_wild, x, basis, True, pre_close, direct=True)


#: The six instrumented algorithms by their command-line and CSV names.
ALGORITHMS: dict[str, Callable[[AttributeSet, Basis], ClosureResult]] = {
    "classic": closure_classic,
    "lin": lin_closure,
    "wild": wild_closure,
    "classic-direct": closure_direct,
    "lin-direct": lin_closure_direct,
    "wild-direct": wild_closure_direct,
}


def implies(basis: Basis, query: Implication) -> bool:
    """Does the basis entail ``query``?  True iff the query rhs is contained
    in the closure of the query lhs, computed with the cheapest algorithm
    valid for the basis kind: Wild's single round on a ``cdub`` or
    ``dbasis``, Wild's passes on any other kind.  The first call on a fresh
    basis builds its lhs and rhs columns (:meth:`Basis.attr_masks` and
    :meth:`Basis.rhs_masks`), which later calls share."""
    universe = query.universe
    if universe is not basis.universe and universe != basis.universe:
        raise UniverseMismatch("query universe differs from basis universe")
    direct = basis.kind in _DIRECT_KINDS
    closed = _wild(query.lhs.bits, basis, direct, direct)[0]
    return query.rhs.bits & ~closed == 0
