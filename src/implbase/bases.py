"""Construction of implication bases from a standard formal context.

Three constructions, all requiring a clarified and reduced context so that no
attribute is implied by the empty set:

* :func:`build_cdub` - the canonical direct unit basis: one unit implication
  per (minimal generator, implied attribute) pair, right-hand sides merged
  per left-hand side.  One simultaneous round computes any closure.
* :func:`build_dbasis` - the ordered direct basis: all unit binary
  implications first, then the minimal generators of size two or more that
  survive the redundancy filter against the binary prefix.  One in-order
  round computes any closure once the prefix comes first.
* :func:`build_dg` - the minimum-cardinality basis: one implication per
  pseudo-closed set, found by the one lectic walk that also serves the
  pseudo-closed predicates below.

Plus the predicates that tests and the command line lean on: pseudo-closed
membership, basis equivalence, and directness verification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial, reduce
from itertools import islice
from operator import or_
from typing import Callable, Iterator

from .bits import (
    Pairs,
    Sliced,
    bit_indices,
    fixpoint_bits,
    slice_pairs,
    sliced_round,
    spread,
    transpose_bits,
    unclosed_lanes,
)
from .context import Context, require_standard
from .errors import UniverseMismatch
from .sets import AttributeSet, Basis, BasisKind, _implications, _merge_pairs, lectic_key

__all__ = [
    "PseudoClosedWitness",
    "BUILDERS",
    "build_cdub",
    "build_dbasis",
    "build_dg",
    "is_pseudo_closed",
    "enumerate_pseudo_closed",
    "check_equiv",
    "verify_direct",
    "direct_witness",
    "direct_scope",
    "EXHAUSTIVE_LIMIT",
    "SAMPLES",
]

#: Directness is checked over the whole powerset up to this many attributes,
EXHAUSTIVE_LIMIT = 12
#: and over this many seeded random sets beyond it,
SAMPLES = 2048
#: drawn from this seed.
_SEED = 0
#: Candidate sets per bit-sliced chunk; one chunk holds the default policy.
_LANES = 1 << 12


# -- minimal generators -------------------------------------------------------


def _minimal_transversals(edges: list[int]) -> list[int]:
    """All inclusion-minimal bit sets hitting every edge.

    An empty edge admits no transversal; an empty family is hit by the empty
    set.  The antichain ``trans`` of minimal transversals takes one edge at a
    time, smallest first: an empty edge empties it at once, and an edge that
    contains an earlier one is already hit by every set.  The sets that
    ``hit`` the edge stay; each ``t`` that misses it yields ``t | low`` per
    attribute ``low`` of the edge, unless some ``h`` in ``hit`` lies inside.
    As ``t`` misses the edge, that needs ``low`` in ``h`` and reads
    ``h ^ low <= t``: only the ``own`` sets test.

    No minimality filter follows.  ``t1 | l1 <= t2 | l2`` gives ``t1 <= t2``
    (``l2`` is in the edge, so not in ``t1``), hence ``t1 == t2`` in the
    antichain and then ``l1 == l2``: the candidates are distinct and pairwise
    incomparable.  Nor does a ``hit`` set contain one, since
    ``t | low <= h`` would put ``t`` strictly inside ``h``.
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


def _proper_premises(ctx: Context) -> list[list[int]]:
    """Per attribute ``m``: every minimal set not containing ``m`` whose
    closure contains ``m``.

    A set implies ``m`` exactly when it clashes with every object row missing
    ``m``, so the premises are the minimal transversals of those row
    complements (with ``m`` itself excluded from play).
    """
    n = ctx.universe.size
    mask = ctx.universe.mask
    rows = ctx.row_bits()
    out: list[list[int]] = []
    for m in range(n):
        mbit = 1 << m
        edges = [(mask & ~row) & ~mbit for row in rows if not row & mbit]
        out.append(_minimal_transversals(edges))
    return out


# -- builders -----------------------------------------------------------------


def build_cdub(ctx: Context) -> Basis:
    """Canonical direct unit basis of a standard context.

    Emits the unit implication ``A -> m`` for every minimal generator ``A``
    of every attribute ``m``, then merges right-hand sides per left-hand
    side.  The result is direct: one simultaneous round reaches any closure.
    """
    require_standard(ctx)
    universe = ctx.universe
    n = universe.size
    premises = _proper_premises(ctx)
    units = [
        (lhs, 1 << m)
        for m in range(n)
        for lhs in sorted(premises[m], key=lambda b: lectic_key(b, n))
    ]
    merged = _implications(universe, _merge_pairs(units))
    return Basis(merged, kind=BasisKind.CDUB, universe=universe)


def build_dbasis(ctx: Context) -> Basis:
    """Ordered direct basis of a standard context.

    The binary prefix lists ``a -> c`` for every attribute ``c`` in the
    closure of the single attribute ``a``; it is transitively closed by
    construction.  The tail keeps a minimal generator ``A`` of ``c`` (size
    two or more) only if the prefix alone neither reaches ``c`` from ``A``
    nor reaches some other minimal generator of ``c``.  Prefix first and the
    tail in lectic order of the left-hand side, right-hand sides merged
    within the tail only, so the prefix stays in unit form.
    """
    require_standard(ctx)
    universe = ctx.universe
    n = universe.size
    single_closures = [ctx.closure_bits(1 << a) for a in range(n)]
    prefix = [
        (1 << a, 1 << c)
        for a in range(n)
        for c in bit_indices(single_closures[a] & ~(1 << a))
    ]
    premises = _proper_premises(ctx)
    tail_units: list[tuple[int, int]] = []
    for c in range(n):
        plist = premises[c]
        # Bit i of a column says premise i holds that attribute, so the
        # premises inside ``reach`` are those that no outside column marks.
        columns = [(1 << a, col) for a, col in enumerate(transpose_bits(plist, n))]
        everyone = (1 << len(plist)) - 1
        for i, lhs in enumerate(plist):
            if lhs.bit_count() < 2:
                continue
            reach = spread(lhs, single_closures)
            if reach >> c & 1:
                continue
            outside = reduce(or_, [col for bit, col in columns if not reach & bit], 0)
            if everyone & ~outside & ~(1 << i):
                continue
            tail_units.append((lhs, c))
    tail_units.sort(key=lambda unit: (lectic_key(unit[0], n), unit[1]))
    tail = _merge_pairs([(lhs, 1 << c) for lhs, c in tail_units])
    return Basis(
        _implications(universe, prefix + tail),
        kind=BasisKind.DBASIS,
        sigma0_len=len(prefix),
        universe=universe,
    )


def _next_list_closed(bits: int, spots: list[int], ground: int, impls: Pairs) -> int:
    """Lectically next ``Y <= ground`` with ``L(Y) & ground == Y``, where ``L``
    closes under the list; returns ``L(Y)``.  ``spots``: ground bits, last first."""
    for bit in spots:
        if bits & bit:
            bits &= ~bit
        else:
            prefix = bit - 1
            candidate = fixpoint_bits((bits & prefix) | bit, impls)
            if candidate & ground & prefix == bits & prefix:
                return candidate
    raise RuntimeError("no lectic successor; the ground set should have ended the walk")


def _pseudo_closed(close: Callable[[int], int], ground: int) -> list[tuple[int, int]]:
    """Every pseudo-closed subset of ``ground`` under ``close``, with its
    closure, in lectic order.

    Ganter's walk, closing under the list ``L`` of the pairs found so far.  A
    set is closed or pseudo-closed iff ``L`` leaves it unchanged once ``L``
    holds its pseudo-closed proper subsets, and those all come earlier in
    lectic order.  ``Y -> L(Y) & ground`` is a closure operator on the subsets
    of ``ground``; the walk visits its closed sets, up to ``ground`` itself,
    and tests those whose ``L`` closure stays inside ``ground``.
    """
    spots = [1 << i for i in reversed(bit_indices(ground))]
    found: list[tuple[int, int]] = []
    bits = lifted = 0
    while True:
        if lifted == lifted & ground:
            closed = close(bits)
            if closed != bits:
                found.append((bits, closed))
        if bits == ground:
            return found
        lifted = _next_list_closed(bits, spots, ground, found)
        bits = lifted & ground


def build_dg(ctx: Context) -> Basis:
    """Minimum-cardinality basis of a standard context.

    ``P -> closure(P) \\ P`` per pseudo-closed set ``P``, in lectic order.  In
    a standard context the empty set is closed, so no left-hand side is empty.
    """
    require_standard(ctx)
    universe = ctx.universe
    found = _pseudo_closed(ctx.closure_bits, universe.mask)
    return Basis(
        _implications(universe, [(p, c & ~p) for p, c in found]),
        kind=BasisKind.DG,
        universe=universe,
    )


#: Every builder by the kind it makes, in the order the command line lists them.
BUILDERS: dict[BasisKind, Callable[[Context], Basis]] = {
    BasisKind.CDUB: build_cdub,
    BasisKind.DBASIS: build_dbasis,
    BasisKind.DG: build_dg,
}


# -- predicates ---------------------------------------------------------------


@dataclass(frozen=True)
class PseudoClosedWitness:
    """A pseudo-closed set together with its closure under the basis."""

    pseudo_closed: AttributeSet
    closure: AttributeSet


def is_pseudo_closed(x: AttributeSet, basis: Basis) -> bool:
    """Is ``x`` pseudo-closed under the basis?

    ``x`` must not be closed, and the closure of every pseudo-closed proper
    subset must stay inside ``x``.  If ``x`` is not closed, the lectic walk
    over its subsets finds at least one pseudo-closed set and ends with ``x``.
    """
    if x.universe != basis.universe:
        raise UniverseMismatch("set universe differs from basis universe")
    close = partial(fixpoint_bits, pairs=basis.pairs())
    if close(x.bits) == x.bits:
        return False
    return _pseudo_closed(close, x.bits)[-1][0] == x.bits


def enumerate_pseudo_closed(basis: Basis) -> list[PseudoClosedWitness]:
    """Every pseudo-closed set of the basis with its closure, in lectic order,
    from the lectic walk of :func:`build_dg` closing under the basis."""
    universe = basis.universe
    found = _pseudo_closed(partial(fixpoint_bits, pairs=basis.pairs()), universe.mask)
    return [
        PseudoClosedWitness(AttributeSet(universe, p), AttributeSet(universe, c))
        for p, c in found
    ]


def _entails(
    pairs: tuple[tuple[int, int], ...],
    other: Sliced,
    n: int,
) -> bool:
    """Does each implication of ``pairs`` follow from the sliced ``other``?

    Every lhs takes one lane; simultaneous rounds under ``other`` grow all of
    them together until each rhs is contained or the columns stop changing.
    """
    cols = transpose_bits([lhs for lhs, _ in pairs], n)
    need = transpose_bits([rhs for _, rhs in pairs], n)
    while True:
        if not any(w & ~c for w, c in zip(need, cols)):
            return True
        grown = sliced_round(cols, other, ordered=False)
        if grown == cols:
            return False
        cols = grown


def check_equiv(b1: Basis, b2: Basis) -> bool:
    """Do both bases induce the same closure operator?

    Each implication of one must follow from the other: its rhs must be
    contained in the closure of its lhs computed under the other basis.
    """
    if b1.universe != b2.universe:
        raise UniverseMismatch("bases live in different universes")
    n = b1.universe.size
    p1, p2 = b1.pairs(), b2.pairs()
    return _entails(p1, slice_pairs(p2), n) and _entails(p2, slice_pairs(p1), n)


def _candidates(n: int, limit: int, samples: int, seed: int) -> tuple[Iterator[int], str]:
    """The candidate sets of the directness check, and their scope in words."""
    if n <= limit:
        return iter(range(1 << n)), f"exhaustive, {1 << n} sets"
    rng = random.Random(seed)
    sets = (rng.getrandbits(n) for _ in range(samples))
    return sets, f"sampled, {samples} sets, seed {seed}"


def direct_scope(size: int) -> str:
    """The scope of the default :func:`direct_witness` over ``size`` attributes."""
    return _candidates(size, EXHAUSTIVE_LIMIT, SAMPLES, _SEED)[1]


def direct_witness(
    basis: Basis,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    samples: int = SAMPLES,
    seed: int = _SEED,
) -> AttributeSet | None:
    """The first candidate set whose closure one round misses, or ``None``.

    For a ``dbasis`` the round is the in-order sweep (ordered directness);
    for every other kind it is the simultaneous round.  The candidates are
    the whole powerset, in counting order, up to ``exhaustive_limit``
    attributes, and ``samples`` seeded random sets beyond.  They are checked
    ``_LANES`` at a time, one per lane: one round reaches the closure iff
    its result is closed, because the closure is the least closed superset.
    """
    n = basis.universe.size
    sliced = slice_pairs(basis.pairs())
    ordered = basis.kind is BasisKind.DBASIS
    candidates, _ = _candidates(n, exhaustive_limit, samples, seed)
    while chunk := list(islice(candidates, _LANES)):
        once = sliced_round(transpose_bits(chunk, n), sliced, ordered)
        bad = unclosed_lanes(once, sliced)
        if bad:
            return AttributeSet(basis.universe, chunk[(bad & -bad).bit_length() - 1])
    return None


def verify_direct(
    basis: Basis,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    samples: int = SAMPLES,
    seed: int = _SEED,
) -> bool:
    """Does one round always reach the closure?  See :func:`direct_witness`
    for the round used per kind and the exhaustiveness policy."""
    return direct_witness(basis, exhaustive_limit, samples, seed) is None
