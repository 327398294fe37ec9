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
* ``elapsed_ns`` - monotonic wall time of the computation phase only: the
  algorithm and its firings, nothing else.  Per-attribute occurrence lists,
  left-hand-side sizes and binary-prefix reachability are reusable
  precomputation and are excluded; the per-call counter initialisation of
  the counting variants (a copy of the memoised lhs sizes) is included.

Each public algorithm is one call to a shared checked entry, which checks
the universe, refuses a non-direct kind for the single-round three, runs
the algorithm's private kernel on ``x.bits`` and wraps what it returns.  A
kernel has the signature ``(bits, basis[, pre_close])`` and returns the
tuple ``(closure_bits, deps, attribute_ops, inner_loops, outer_loops,
elapsed_ns)``.  It reads the basis's pairs, occurrence lists, lhs sizes or
masks and the pre-closed seed before starting its clock.

Inside the clock a kernel runs its loop with one ``deps`` tick per firing;
the other counters are closed forms of the loop's end state, computed after
the clock stops, and equal what a tick per step would count.  With ``m``
implications and ``|L(a)|`` the length of attribute ``a``'s occurrence list:

* classic-direct: ``inner = m``, ``outer = 1``, ``ops = m + deps``;
* lin-direct: ``outer = |seed|``, ``inner = sum of |L(a)|`` over the seed,
  ``ops = deps + 1`` (every seed attribute leaves the worklist once);
* lin: ``outer = |closure|``, ``inner = sum of |L(a)|`` over the closure,
  ``ops = 3 deps`` (every closure attribute passes through the worklist
  exactly once);
* classic: ``inner`` grows by the number of implications left once per
  pass, and ``ops = inner + deps``;
* wild and wild-direct count once per pass, which their loops do anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
    wrapped unmasked: they are the input's masked bits ORed with stored
    sides, which :class:`Basis` checks against its universe.
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
    at most once.  The per-attribute occurrence lists are precomputed outside
    the measured phase; the per-call counters are initialised inside it.
    """
    return _closed(_lin, x, basis)


def _lin(bits: int, basis: Basis) -> _Run:
    pairs = basis.pairs()
    lists = basis.attr_lists()
    sizes = basis.lhs_sizes()
    deps = 0
    start = time.perf_counter_ns()
    count = list(sizes)
    update = bits
    while update:
        low = update & -update
        update ^= low
        for idx in lists[low.bit_length() - 1]:
            count[idx] -= 1
            if count[idx] == 0:
                deps += 1
                add = pairs[idx][1] & ~bits
                bits |= add
                update |= add
    elapsed = time.perf_counter_ns() - start
    # only new attributes enter the worklist, so each closure attribute
    # leaves it once; a difference and two unions per firing
    return bits, deps, 3 * deps, _occurrences(bits, lists), bits.bit_count(), elapsed


def _occurrences(bits: int, lists: Sequence[Sequence[int]]) -> int:
    """Inner-loop ticks of a worklist that takes each attribute of ``bits``
    once: the summed lengths of their occurrence lists."""
    return sum(map(len, map(lists.__getitem__, bit_indices(bits))))


def _wild_round(
    bits: int,
    alive: int,
    pairs: Sequence[tuple[int, int]],
    masks: Sequence[int],
    full: int,
) -> tuple[int, int]:
    """One Wild pass: every ``alive`` implication whose lhs avoids the
    complement of ``bits`` fires.  Returns the grown bits and the fire mask;
    the caller charges one difference plus one union per fired implication."""
    fire = alive & ~spread(full & ~bits, masks)
    rest = fire
    while rest:
        low = rest & -rest
        rest ^= low
        bits |= pairs[low.bit_length() - 1][1]
    return bits, fire


def wild_closure(x: AttributeSet, basis: Basis) -> ClosureResult:
    """Per pass, fire *every* implication whose lhs avoids the complement of
    the current set, then keep only the untouched implications for the next
    pass.  Fired implications are never re-examined."""
    return _closed(_wild, x, basis)


def _wild(bits: int, basis: Basis) -> _Run:
    pairs = basis.pairs()
    masks = basis.attr_masks()
    full = basis.universe.mask
    deps = ops = inner = outer = 0
    start = time.perf_counter_ns()
    alive = (1 << len(pairs)) - 1
    while True:
        outer += 1
        bits, fire = _wild_round(bits, alive, pairs, masks, full)
        fired = fire.bit_count()
        deps += fired
        inner += fired
        ops += 1 + fired
        if not fire:
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
    itself.  Fired right-hand sides accumulate separately and never re-enter
    the worklist.  ``pre_close=False`` skips the seeding; on a ``dbasis``
    whose tail actually matters the result is then too small, which is
    exactly the behaviour the seeding exists to repair.
    """
    return _closed(_lin_once, x, basis, pre_close, direct=True)


def _lin_once(bits: int, basis: Basis, pre_close: bool) -> _Run:
    pairs = basis.pairs()
    lists = basis.attr_lists()
    sizes = basis.lhs_sizes()
    seed = _seed_bits(bits, basis, pre_close)
    deps = 0
    start = time.perf_counter_ns()
    count = list(sizes)
    update = seed
    add = 0
    while update:
        low = update & -update
        update ^= low
        for idx in lists[low.bit_length() - 1]:
            count[idx] -= 1
            if count[idx] == 0:
                deps += 1
                add |= pairs[idx][1]
    bits |= add
    elapsed = time.perf_counter_ns() - start
    # the worklist is the seed, taken once; one union per firing plus the
    # final union
    return bits, deps, deps + 1, _occurrences(seed, lists), seed.bit_count(), elapsed


def wild_closure_direct(
    x: AttributeSet, basis: Basis, *, pre_close: bool = True
) -> ClosureResult:
    """Single simultaneous round over a selection computed once.

    For a ``dbasis`` the input is first replaced by its binary-prefix closure
    (precomputed, hence uncounted).  Every implication whose lhs avoids the
    complement of that seed fires unconditionally; the selection is never
    re-evaluated against the grown set.
    """
    return _closed(_wild_once, x, basis, pre_close, direct=True)


def _wild_once(bits: int, basis: Basis, pre_close: bool) -> _Run:
    pairs = basis.pairs()
    masks = basis.attr_masks()
    full = basis.universe.mask
    seed = _seed_bits(bits, basis, pre_close)
    start = time.perf_counter_ns()
    bits, fire = _wild_round(seed, (1 << len(pairs)) - 1, pairs, masks, full)
    fired = fire.bit_count()
    return bits, fired, 1 + fired, fired, 1, time.perf_counter_ns() - start


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
    valid for the basis kind."""
    universe = query.universe
    if universe is not basis.universe and universe != basis.universe:
        raise UniverseMismatch("query universe differs from basis universe")
    kernel = _sweep if basis.kind in _DIRECT_KINDS else _classic
    return query.rhs.bits & ~kernel(query.lhs.bits, basis)[0] == 0
