"""Construction of implication bases from a standard formal context.

Three constructions, all requiring a clarified and reduced context so that no
attribute is implied by the empty set:

* :func:`build_cdub` - the canonical direct unit basis: one unit implication
  per (minimal generator, implied attribute) pair, right-hand sides merged
  per left-hand side.  One simultaneous round computes any closure.
* :func:`build_dbasis` - the ordered direct basis: all unit binary
  implications first, then the minimal generators of size two or more that
  survive the redundancy filter against the binary prefix, both derived from
  the cdub.  One in-order round computes any closure once the prefix comes
  first.
* :func:`build_dg` - the minimum-cardinality basis: one implication per
  pseudo-closed set, derived from the cdub in polynomial time by the same
  derivation that :func:`enumerate_pseudo_closed` runs on any basis.

Where each part is described:

* the premise search that serves all three builders, searched once per
  context: :func:`_search`; the walk it runs, the facts it rests on and
  what it costs: :func:`_premises`;
* the derivations of the dbasis and the dg from the cdub: :func:`_dbasis`
  and :func:`_pseudo_closed`;
* the bounded memo of one record per basis, which the derivations and
  verification share: :func:`_sliced`; what a record holds:
  :class:`_Record`;
* what verification keeps and reuses of what it has proven: equivalence
  in :func:`check_equiv` and :func:`_entails`, directness in
  :func:`direct_witness` and its candidates in :func:`_candidates`.

Plus what tests and the command line lean on: pseudo-closed enumeration,
basis equivalence, and the directness witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_, xor
from typing import Callable

from .bits import (
    Pairs,
    Sliced,
    bit_indices,
    lectic_sorted,
    slice_pairs,
    sliced_fixpoint,
    sliced_round,
    spread,
    transpose_bits,
)
from .context import Context, require_standard
from .errors import UniverseMismatch
from .sets import AttributeSet, Basis, BasisKind, _merge_pairs

__all__ = [
    "PseudoClosedWitness",
    "BUILDERS",
    "build_cdub",
    "build_dbasis",
    "build_dg",
    "enumerate_pseudo_closed",
    "check_equiv",
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


# -- proper premises -----------------------------------------------------------


def _premises(ctx: Context) -> tuple[dict[int, int], dict[int, int]]:
    """Every proper premise ``A`` of the standard context ``ctx`` with its
    nonempty ``R_A``, the attributes that ``A`` is a minimal generator of,
    and every such ``A`` with its closure ``A''``.

    One levelwise walk over the free sets, as TITANIC walks them (Stumme et
    al., DKE 42, 2002), finds each premise once.  A set is free when each
    facet ``A - a`` has a larger extent, that is, when ``a`` lies outside
    ``(A - a)''``.  The walk rests on four facts:

    * A proper premise is free: a facet with the same extent has the same
      closure, and that leaves ``R_A`` below empty.
    * Free sets are closed under subsets.  So ``C = A | b`` at level
      ``k + 1``, for ``b`` above the highest bit of ``A`` and outside
      ``A''``, is free iff every other facet of ``C`` is a free set of level
      ``k`` whose closure lacks the attribute it drops.  The facet that drops
      the highest bit of ``A`` must be one, so only the highest bits of
      ``A``'s siblings in level ``k`` are tried as ``b``.
    * A free set whose closure is the whole universe has no free superset.
      No row of a standard context is full, so its extent is empty, as is
      every superset's.  It is left out of its level.
    * ``R_A = A'' - (A | U (A - a)'')`` over the ``a`` in ``A``: the
      attributes that ``A`` implies and no facet does (Ryssel, Distel &
      Borchmann, AMAI 70, 2014).  So ``R_C`` is read from the closures of
      the facets just looked up.

    ``C''`` is the intent of the extent ``E = A' & b'``: every attribute
    ``m`` whose column of :meth:`Context.column_bits` holds ``E``, tested as
    ``E & col[m] == E`` (Ganter & Wille, 1999), so the walk reads the
    context through its columns alone.  Intents are memoised per extent, as
    closed sets are far fewer than free sets: without the memo the walk
    took 1.35-1.55x as long on the three perfbench corpus shapes.  Level 0
    is the empty set, whose extent is every object and whose closure is
    empty in a standard context, so each single attribute is free, with its
    column as its extent.  One level is kept at a time.  The closure of
    each premise is returned beside it, as the dg derivation starts from
    it.

    A minimal transversal search per attribute lists each premise ``A`` once
    per attribute of ``R_A``, so its work grows with the (premise,
    attribute) units; the walk's grows with the free sets.  The walk does
    less on sparse and wide contexts, and more on dense ones, where free
    sets outnumber the units (1,449 to 327 on
    ``gen_synthetic(50, 12, 0.6, 1)``).
    """
    mask = ctx.universe.mask
    cols = ctx.column_bits()
    columns = [(1 << m, col) for m, col in enumerate(cols)]
    closures: dict[int, int] = {}
    memo = closures.get

    def closure(extent: int) -> int:
        closed = 0
        for bit, col in columns:
            if extent & col == extent:
                closed |= bit
        closures[extent] = closed
        return closed

    merged: dict[int, int] = {}
    # each lhs of merged with its closure: a tuple inside merged would slow
    # the walk
    kept: dict[int, int] = {}
    # each free set of the level with its extent and its closure
    level: dict[int, tuple[int, int]] = {}
    for b, extent in enumerate(cols):
        bit = 1 << b
        closed = closure(extent)
        if closed != bit:
            merged[bit] = closed ^ bit
            kept[bit] = closed
        if closed != mask:
            level[bit] = (extent, closed)
    while level:
        siblings: dict[int, int] = {}
        for a in level:
            top = 1 << (a.bit_length() - 1)
            siblings[a ^ top] = siblings.get(a ^ top, 0) | top
        facet = level.get
        up: dict[int, tuple[int, int]] = {}
        for a, (extent, closed) in level.items():
            top = 1 << (a.bit_length() - 1)
            more = siblings[a ^ top] & -(top << 1) & ~closed
            if not more:
                continue
            drops = bit_indices(a)
            for b in bit_indices(more):
                bit = 1 << b
                c = a | bit
                implied = closed | bit
                for x in drops:
                    other = facet(c ^ 1 << x)
                    if other is None or other[1] >> x & 1:
                        break
                    implied |= other[1]
                else:
                    inside = extent & cols[b]
                    whole = memo(inside)
                    if whole is None:
                        whole = closure(inside)
                    if whole & ~implied:
                        merged[c] = whole & ~implied
                        kept[c] = whole
                    if whole != mask:
                        up[c] = (inside, whole)
        level = up
    return merged, kept


# -- builders -----------------------------------------------------------------


@dataclass(eq=False)
class _Search:
    """One context, its cdub (the merged pairs ``A -> R_A`` in basis
    order), and the closure ``A''`` of each lhs in the cdub's order."""

    ctx: Context
    cdub: Basis
    closures: list[int]


#: The last context searched, with its cdub.  It keeps one context alive at
#: most, and the three builders of one context share one premise search.
#: A hand-rolled slot, as a ``functools`` memo matches by equality and
#: hashes the rows on each call: this one matches by identity, so an equal
#: twin context searches anew
#: (``test_interleaved_builders_match_builds_on_unseen_contexts`` pins it).
_searched: _Search | None = None


def _search(ctx: Context) -> _Search:
    """The cdub of ``ctx`` with its lhs closures, searched once while ``ctx``
    stays the last context a builder was called on.  One walk over the free
    sets of ``ctx`` (:func:`_premises`) finds each proper premise ``A`` once
    with its ``R_A`` and its closure.  Standardness is checked on each
    search, so a context that fails it is never kept; that check builds the
    context's column memo, which the walk reads.

    The cdub pairs go by the first attribute whose premises hold the lhs,
    then in lectic order of the lhs.  That first attribute is the lowest bit
    of the merged rhs, so a stable sort on that bit of the pairs in lectic
    order (:func:`lectic_sorted`) orders them.  The sorted pairs are checked
    and stored once, as the cdub that every builder reads.
    """
    global _searched
    last = _searched
    if last is None or last.ctx is not ctx:
        require_standard(ctx)
        n = ctx.universe.size
        merged, closures = _premises(ctx)
        pairs = lectic_sorted(list(merged.items()), n)
        pairs.sort(key=lambda pair: pair[1] & -pair[1])
        cdub = Basis._from_pairs(pairs, BasisKind.CDUB, universe=ctx.universe)
        last = _searched = _Search(ctx, cdub, [closures[lhs] for lhs, _ in pairs])
    return last


def build_cdub(ctx: Context) -> Basis:
    """Canonical direct unit basis of a standard context.

    One implication ``A -> R_A`` per proper premise ``A``, where ``R_A``
    holds every attribute ``m`` that ``A`` is a minimal generator of: the
    unit implications ``A -> m`` with their right-hand sides merged per
    left-hand side.  The result is direct: one simultaneous round reaches
    any closure.
    """
    return _search(ctx).cdub


def _dbasis(
    pairs: Pairs, sliced: Sliced, n: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The binary prefix and the merged tail of the ordered direct basis,
    derived from the merged cdub pairs ``A -> R_A``, where ``R_A`` holds the
    attributes that ``A`` is a minimal generator of, and from their sliced
    form ``sliced``.  The tail is sorted into lectic order of its left-hand
    sides.

    ``reach[a]`` is ``a`` with the rhs of the pair ``{a}``: the closure of
    ``a``, as the empty set is closed in a standard context.  The prefix is
    read from it, and the reach of a set is the union of ``reach`` over its
    attributes.  The pairs with two or more attributes take one lane each,
    and the filter goes by column, one pass over the lanes:

    * ``rcols[a]`` marks the lanes whose lhs reach holds ``a``.  It is built
      by attribute, not by lane: ``back[a]``, the attributes ``b`` whose
      ``reach[b]`` holds ``a``, spreads over the lhs columns ``lcols``, so
      ``rcols[a]`` marks the lanes whose lhs holds such a ``b``.  That is
      ``n`` spreads rather than one per lane;
    * ``inside`` of lane ``k``, the AND of ``rcols`` over the lhs of ``k``
      less lane ``k`` itself, marks the other lanes ``j`` whose reach holds
      that lhs;
    * ``drop[c]`` ORs ``inside`` of every lane ``k`` whose rhs holds ``c``;
    * lane ``j`` keeps its rhs less the attributes ``c`` whose ``drop[c]``
      marks ``j``: what no rhs of a lhs inside its reach holds.
    """
    reach = [1 << a for a in range(n)]
    wide: list[tuple[int, int]] = []
    cuts: Sliced = []
    for pair, cut in zip(pairs, sliced):
        if len(cut[0]) > 1:
            wide.append(pair)
            cuts.append(cut)
        else:
            reach[cut[0][0]] |= pair[1]
    prefix = [(1 << a, 1 << c) for a in range(n) for c in bit_indices(reach[a] & ~(1 << a))]
    lcols = transpose_bits([lhs for lhs, _ in wide], n)
    rcols = [spread(back, lcols) for back in transpose_bits(reach, n)]
    column = rcols.__getitem__
    drop = [0] * n
    lane = 1
    for lhs, rhs in cuts:
        # the reach of a lhs holds the lhs, so the AND marks the lane itself
        inside = reduce(and_, map(column, lhs)) ^ lane
        lane <<= 1
        if inside:
            for c in rhs:
                drop[c] |= inside
    gone = transpose_bits(drop, len(wide))
    tail = [(lhs, rhs & ~g) for (lhs, rhs), g in zip(wide, gone) if rhs & ~g]
    return prefix, lectic_sorted(tail, n)


def build_dbasis(ctx: Context) -> Basis:
    """Ordered direct basis of a standard context.

    The binary prefix lists ``a -> c`` for every attribute ``c`` in the
    closure of the single attribute ``a``; it is transitively closed by
    construction.  The tail keeps a minimal generator ``A`` of ``c`` (size
    two or more) only if the prefix alone neither reaches ``c`` from ``A``
    nor reaches some other minimal generator of ``c``: the refinement of
    Adaricheva, Nation & Rand, "Ordered direct implicational basis of a
    finite closure system" (DAM 161, 2013).  Prefix first and the tail in
    lectic order of the left-hand side, right-hand sides merged within the
    tail only, so the prefix stays in unit form.

    Both are derived from the cdub of the shared premise search and its
    :func:`_sliced` form by :func:`_dbasis`, which keeps ``R_A`` less the
    ``R_B`` of every other lhs ``B`` of two or more attributes inside the
    prefix reach of ``A``.  That is the rule above.  For ``|A| >= 2`` its
    first clause always holds: ``c`` in the closure of some ``a`` in ``A``
    would make ``{a}`` a smaller generator of ``c``.  A singleton ``B``
    inside the reach of ``A`` never drops a ``c`` of ``R_A``, for the same
    reason.
    """
    universe = ctx.universe
    cdub = _search(ctx).cdub
    prefix, tail = _dbasis(cdub.pairs(), _sliced(cdub).sliced, universe.size)
    return Basis._from_pairs(prefix + tail, BasisKind.DBASIS, len(prefix), universe=universe)


def _pseudo_closed(
    pairs: Pairs, sliced: Sliced, n: int, closures: list[int]
) -> list[tuple[int, int]]:
    """Every pseudo-closed set of the closure operator of ``pairs``, with its
    closure, in lectic order; derived from the pairs, their sliced form
    ``sliced`` and the closures of their left-hand sides in polynomial time
    (Ganter & Obiedkov 2016).

    Implication ``j``, ``A_j -> B_j``, takes lane ``j``:

    1. ``K_j``, the closure of ``A_j``: ``closures[j]``.  The caller
       computes them: :func:`build_dg` hands over those the premise search
       kept for the cdub, and :func:`enumerate_pseudo_closed` runs in-order
       rounds in all lanes at once, to a fixpoint.
    2. ``allowed_j``: the lanes ``q`` with ``K_j`` strictly inside ``K_q``.
    3. ``X_q``: the closure of ``A_q`` under every ``A_j -> B_j``, where
       ``j`` fires only in the lanes of ``allowed_j``.  The allowed lanes sit
       in one extra column per distinct ``K_j``, added to the lhs of ``j``.
    4. Per closure ``K``, the inclusion-minimal ``X_q != K`` with ``K_q == K``.

    In step 3 ``X_q`` stays inside ``K_q``, and ``j`` fires only once
    ``A_j`` lies inside ``X_q``, which puts ``K_j`` inside ``K_q``.  So the
    column of ``allowed_j`` need only mark the lanes whose ``K_q`` has an
    attribute outside ``K_j``.  An implication whose column marks no lane,
    as when ``K_j`` is the whole universe, never fires, and step 3 leaves
    it out.

    Step 3 puts the fence column first in each lhs, so an implication whose
    fence marks none of the lanes its first lhs column holds costs one AND in
    a round (:func:`sliced_round` stops at the first empty AND).  It fires
    the implications in ascending order of ``|K_j|``: the firings that
    derive ``K_j`` from ``A_j`` are of implications whose closures lie
    inside ``K_j``, so they tend to come first, one in-order sweep gets
    further, and the fixpoint takes fewer rounds.  The order cannot change
    ``X_q``.  No rhs writes a fence column, so each fenced implication is a
    fixed monotone rule on the lane columns, and in-order rounds in any
    order end at the least columns that hold the start and are closed under
    every rule.

    Step 3 reaches the same ``X_q`` as firing ``A_j -> K_j`` would, for any
    list of pairs.  Firing ``B_j``, a part of ``K_j``, never adds more.  And
    once allowed ``j`` fires in lane ``q``, ``K_j`` follows inside ``X_q``:
    ``K_j`` is derived from ``A_j`` by firings of implications ``i`` with
    ``A_i`` inside ``K_j``, so with ``K_i`` inside ``K_j``, strictly inside
    ``K_q``; each such ``i`` is allowed in lane ``q`` too, so the fixpoint
    holds all of ``K_j``.

    Each ``X_q`` is quasi-closed: the closure of a subset, if strictly inside
    ``K_q``, is reached by allowed implications only, so it stays inside
    ``X_q``.  A pseudo-closed ``P`` is not closed, so some ``A_q`` inside
    ``P`` has ``B_q`` outside it; ``P`` being quasi-closed, ``K_q`` is then
    the closure of ``P``, and every allowed firing from inside ``P`` stays
    inside ``P``, so ``X_q <= P``.  The pseudo-closed sets are exactly the
    minimal quasi-closed sets of their closure class that are not closed, so
    ``X_q == P`` and step 4 lists exactly them.  Left-hand sides are never
    empty, so the empty set is closed and never listed.
    """
    if not pairs:
        return []
    lanes = len(pairs)
    cols = transpose_bits([lhs for lhs, _ in pairs], n)
    k_cols = transpose_bits(closures, n)
    mask = (1 << n) - 1
    # per distinct closure: its fence column, or None when the column
    # marks no lane
    fence: dict[int, int | None] = dict.fromkeys(closures)
    fences: list[int] = []
    for k in fence:
        allowed = reduce(or_, [k_cols[a] for a in bit_indices(mask & ~k)], 0)
        if allowed:
            fence[k] = n + len(fences)
            fences.append(allowed)
    by_size = sorted(range(lanes), key=lambda j: closures[j].bit_count())
    fenced = [
        ((f,) + sliced[j][0], sliced[j][1])
        for j in by_size if (f := fence[closures[j]]) is not None
    ]
    xs = transpose_bits(sliced_fixpoint(cols + fences, fenced)[:n], lanes)
    classes: dict[int, set[int]] = {}
    for x, k in zip(xs, closures):
        if x != k:
            classes.setdefault(k, set()).add(x)
    found: list[tuple[int, int]] = []
    for k, quasi in classes.items():
        least: list[int] = []
        for x in sorted(quasi, key=int.bit_count):
            if not any(p & x == p for p in least):
                least.append(x)
        found.extend((p, k) for p in least)
    return lectic_sorted(found, n)


def build_dg(ctx: Context) -> Basis:
    """Minimum-cardinality basis of a standard context.

    ``P -> closure(P) \\ P`` per pseudo-closed set ``P``, in lectic order,
    derived from the cdub of the shared premise search, from the lhs
    closures that search kept and from the :func:`_sliced` form of the cdub
    that the dbasis reads too.  In a standard context the empty set is
    closed, so no left-hand side is empty.
    """
    universe = ctx.universe
    found = _search(ctx)
    cdub = found.cdub
    pseudo = _pseudo_closed(cdub.pairs(), _sliced(cdub).sliced, universe.size, found.closures)
    return Basis._from_pairs([(p, c & ~p) for p, c in pseudo], BasisKind.DG, universe=universe)


#: Every builder by the kind it makes, in the order the command line lists them.
BUILDERS: dict[BasisKind, Callable[[Context], Basis]] = {
    BasisKind.CDUB: build_cdub,
    BasisKind.DBASIS: build_dbasis,
    BasisKind.DG: build_dg,
}


# -- pseudo-closed sets and verification --------------------------------------


@dataclass(frozen=True)
class PseudoClosedWitness:
    """A pseudo-closed set together with its closure under the basis."""

    pseudo_closed: AttributeSet
    closure: AttributeSet


def enumerate_pseudo_closed(basis: Basis) -> list[PseudoClosedWitness]:
    """Every pseudo-closed set of the basis with its closure, in lectic order,
    derived from the basis as :func:`build_dg` derives them from the cdub.

    The closures of the left-hand sides, which :func:`_pseudo_closed` takes,
    are computed here: in-order rounds in one lane per implication, to a
    fixpoint."""
    universe = basis.universe
    n = universe.size
    pairs = basis.pairs()
    sliced = _sliced(basis).sliced
    lhs_cols = transpose_bits([lhs for lhs, _ in pairs], n)
    closures = transpose_bits(sliced_fixpoint(lhs_cols, sliced), len(pairs))
    return [
        PseudoClosedWitness(AttributeSet(universe, p), AttributeSet(universe, c))
        for p, c in _pseudo_closed(pairs, sliced, n, closures)
    ]


@dataclass(eq=False)
class _Record:
    """What verification keeps of one basis: its sliced pairs, one per pair
    of the basis, so their count is its size; ``merged``, each lhs with the
    OR of its rhs (:func:`_merge_pairs`, as a dbasis repeats the lhs of its
    prefix and a raw basis may repeat any), built by the first entailment
    under the basis; ``peer``, a link towards the record of a basis proven
    equivalent; and, on the root of a class, ``closed``, the closure columns
    of the directness candidates beside the candidate columns they close.
    It holds no :class:`Basis`, so a caller's bases are free to go."""

    sliced: Sliced
    merged: dict[int, int] | None = None
    peer: _Record | None = None
    closed: tuple[list[int], list[int]] | None = None


@lru_cache(maxsize=len(BUILDERS))
def _sliced(basis: Basis) -> _Record:
    """The record of the basis, kept for the last three bases sliced, so one
    context's builds and check slice each of its bases once: the dbasis and
    dg derivations read the cdub's, and the check hits that entry with any
    equal cdub.  Bounded because callers may keep every basis alive; a
    record that drops out is reached only through the links of the records
    still kept, which point towards their roots."""
    return _Record(slice_pairs(basis.pairs()))


def _root(record: _Record) -> _Record:
    """The root of the record's class, with the path to it compressed."""
    root = record
    while root.peer is not None:
        root = root.peer
    while record is not root:
        record.peer, record = root, record.peer
    return root


def _entails(basis: Basis, other: Basis, record: _Record) -> bool:
    """Does each implication of ``basis`` follow from ``other``, whose record
    is ``record``?

    First by same-lhs subsumption, with no round: ``record.merged`` ORs the
    rhs of every pair of ``other`` per lhs, built on the first entailment
    under ``other`` and kept, and ``A -> B`` follows from ``A -> B'`` for
    every ``B`` inside ``A | B'``, as the closure of ``A`` holds both.  So
    only the part of each rhs outside ``A | merged[A]`` is left to show.
    Every pair of a dbasis is a pair of its cdub with a smaller rhs, or a
    unit of the prefix inside a singleton pair of the cdub, so a cdub
    settles its dbasis this way with nothing left.

    Each implication with a part left takes one lane, and only those: the
    columns start as its lhs and the part left to show, each transposed
    once.  In-order rounds under ``other`` grow all lanes together until
    each part left is contained or the columns stop changing.  Lanes never
    read one another, so leaving the settled ones out changes no verdict,
    and each lane's is its exact one.  A round only adds the rhs of an
    implication whose lhs the lane already holds, so every lane grows and
    stays inside the closure of its lhs; a contained part follows.  A round
    that changes nothing tested every lhs against the final columns, so
    each lane is then closed, hence equal to that closure, and a part still
    missing does not follow.
    """
    merged = record.merged
    if merged is None:
        merged = record.merged = _merge_pairs(other.pairs())
    get = merged.get
    lanes = [(lhs, part) for lhs, rhs in basis.pairs() if (part := rhs & ~(lhs | get(lhs, 0)))]
    if not lanes:
        return True
    n = basis.universe.size
    cols = transpose_bits([lhs for lhs, _ in lanes], n)
    need = transpose_bits([part for _, part in lanes], n)
    sliced = record.sliced
    while True:
        if not any(w & ~c for w, c in zip(need, cols)):
            return True
        grown = sliced_round(cols, sliced, ordered=True)
        if grown == cols:
            return False
        cols = grown


def check_equiv(b1: Basis, b2: Basis) -> bool:
    """Do both bases induce the same closure operator?

    Each implication of one must follow from the other: its rhs must be
    contained in the closure of its lhs computed under the other basis.

    A computed ``True`` links the roots of the two records, the larger
    basis's root under the smaller's, so the records form a union-find
    forest (Tarjan, JACM 22, 1975) and each root is the record of the
    smallest basis of its class; a ``False`` links nothing.  Two bases whose
    records share a root are equivalent without a round: each link is a
    computed equivalence, equal bases share one record, and equivalence is
    transitive, so a path of links joins two bases of one closure operator.
    """
    if b1.universe != b2.universe:
        raise UniverseMismatch("bases live in different universes")
    r1, r2 = _sliced(b1), _sliced(b2)
    root1, root2 = _root(r1), _root(r2)
    if root1 is root2:
        return True
    if not (_entails(b1, b2, r2) and _entails(b2, b1, r1)):
        return False
    small, large = (root1, root2) if len(root1.sliced) <= len(root2.sliced) else (root2, root1)
    large.peer = small
    return True


@lru_cache(maxsize=8)
def _candidates(n: int) -> tuple[list[int], str]:
    """The columns of the candidate sets of the directness check over ``n``
    attributes, set ``q`` in lane ``q``, and their scope in words, kept for
    the last eight widths checked, so every basis checked at one of them
    reuses them.  The whole powerset in counting order up to
    ``EXHAUSTIVE_LIMIT`` attributes, ``SAMPLES`` sets drawn from ``_SEED``
    beyond: one bit-sliced chunk either way.  Only the columns are kept; a
    witness is read back from its lane."""
    if n <= EXHAUSTIVE_LIMIT:
        sets: range | list[int] = range(1 << n)
        scope = f"exhaustive, {1 << n} sets"
    else:
        rng = random.Random(_SEED)
        sets = [rng.getrandbits(n) for _ in range(SAMPLES)]
        scope = f"sampled, {SAMPLES} sets, seed {_SEED}"
    return transpose_bits(sets, n), scope


def direct_scope(size: int) -> str:
    """The scope of :func:`direct_witness` over ``size`` attributes."""
    return _candidates(size)[1]


def direct_witness(basis: Basis) -> AttributeSet | None:
    """The first candidate set whose closure one round misses, or ``None``.

    For a ``dbasis`` the round is the in-order sweep (ordered directness);
    for every other kind it is the simultaneous round.  The candidates are
    those of :func:`_candidates`, checked all at once, one per lane: one
    round reaches the closure iff its result is closed, because the closure
    is the least closed superset.  The witness is read back from the lowest
    lane left unclosed.  The basis's record comes from :func:`_sliced`.

    Closedness belongs to the closure operator, not to the basis, so it is
    tested at the root of the basis's class, the smallest basis proven
    equivalent.  If the root keeps the closure of these very candidate
    columns, the lanes left unclosed are those where the round differs from
    it; else they are those that one simultaneous round of the root's
    implications grows.  A round that leaves no lane unclosed has reached
    the candidates' closure, which the root then keeps.  Either way the
    unclosed lanes, and so the witness, are those of the basis's own rounds.
    """
    cols, _ = _candidates(basis.universe.size)
    record = _sliced(basis)
    once = sliced_round(cols, record.sliced, basis.kind is BasisKind.DBASIS)
    root = _root(record)
    if root.closed is not None and root.closed[0] is cols:
        bad = reduce(or_, map(xor, once, root.closed[1]))
    else:
        bad = reduce(or_, map(xor, sliced_round(once, root.sliced, ordered=False), once))
        if not bad:
            root.closed = (cols, once)
    if not bad:
        return None
    lane = (bad & -bad).bit_length() - 1
    witness = sum(1 << a for a, col in enumerate(cols) if col >> lane & 1)
    return AttributeSet(basis.universe, witness)
