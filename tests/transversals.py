"""A per-attribute premise search, independent of the levelwise free-set
walk that the basis builders run, kept as the reference the walk is tested
against.

A set implies the attribute ``m`` exactly when it clashes with every object
row missing ``m``.  So the proper premises of ``m`` are the minimal
transversals of those row complements, with ``m`` itself out of play
(Ryssel, Distel & Borchmann, AMAI 70, 2014), and one MMCS search per
attribute lists them.  A premise of several attributes is found once per
attribute.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Callable

from implbase.bits import bit_indices, transpose_bits
from implbase.context import Context


def minimal_transversals(edges: list[int]) -> list[int]:
    """All inclusion-minimal bit sets hitting every edge, each once and in no
    fixed order, found by MMCS (Murakami & Uno 2014).

    Duplicate edges are dropped first.  An empty family is hit by the empty set; an
    empty edge admits no transversal.  ``occ[v]`` marks the edges holding
    ``v``.  The search runs depth-first on an explicit stack, as its depth
    can pass the recursion limit.  A frame holds a set ``S``, the edges
    ``crit`` that each member of ``S`` alone hits (one mask per member, in
    order of entry), the edges ``uncov`` that ``S`` misses, and the
    candidates ``cand`` that may still join ``S``.  Invariant: no ``crit``
    mask is empty, so no member of ``S`` can go.

    A frame takes the uncovered edge with the fewest candidates, ``F``.  One
    of them must join, so it branches on each ``v`` of ``F`` in turn, with
    the rest of ``F`` out of ``cand`` and the ``v`` already tried back in.
    ``v`` takes ``occ[v]`` from every ``crit``, and ``S | v`` gets
    ``crit[v] = uncov & occ[v]`` and misses ``uncov & ~occ[v]``.  Two vertex
    masks settle the branches of ``F`` at once, with no ``crit`` copy:

    * ``dead``: the vertices that hold every edge of some member's ``crit``
      mask, the AND of those edges, taken within ``F`` and kept out of
      ``live``.  Such a ``v`` empties that mask, and as ``crit`` masks only
      shrink while ``S`` grows, it stays dead in every descendant: no
      superset of ``S | v`` is minimal, and the branch dies.
    * ``complete``: the vertices in every uncovered edge, the AND of those
      edges.  For a ``v`` in it that is not dead, ``S | v`` misses no edge,
      each older ``crit`` mask keeps an edge, and its own ``crit`` is the
      nonempty ``uncov``: ``S | v`` is a transversal with a critical edge
      per member, so minimal, and is appended at once.

    Only the vertices of ``F & ~complete & ~dead`` get a frame.  The scan
    for ``F`` stops at an edge with one candidate at most, before
    ``complete`` is known, so a chain of singleton edges pays no full scan
    per frame; that one vertex, if any, is settled alone by a ``crit`` copy.

    Complete, and each set once: a minimal transversal ``T`` that contains
    ``S`` and lies inside ``S | cand`` meets ``F``; only the branch on its
    last member in ``F`` keeps its other members of ``F`` in ``cand``, and
    no ``crit`` mask empties on the way to ``T``, as a subset of ``T``
    keeps every edge that one member of ``T`` alone hits.
    """
    edges = list(dict.fromkeys(edges))
    if not edges:
        return [0]
    if 0 in edges:
        return []
    cand = reduce(or_, edges)
    occ = transpose_bits(edges, cand.bit_length())
    found: list[int] = []
    stack: list[tuple[int, list[int], int, int]] = [(0, [], (1 << len(edges)) - 1, cand)]
    while stack:
        s, crit, uncov, cand = stack.pop()
        f, fewest, complete = 0, len(occ) + 1, cand
        rest = uncov
        while rest:
            low = rest & -rest
            edge = edges[low.bit_length() - 1]
            here = edge & cand
            count = here.bit_count()
            if count < fewest:
                f, fewest = here, count
                if count <= 1:  # one branch at most: settle it alone
                    break
            complete &= edge
            rest ^= low
        if rest:  # the scan stopped early
            if f:
                o = occ[f.bit_length() - 1]
                kept = [c & ~o for c in crit]
                if all(kept):
                    left = uncov & ~o
                    if left:
                        kept.append(uncov & o)
                        stack.append((s | f, kept, left, cand & ~f))
                    else:
                        found.append(s | f)
            continue
        live = f
        for c in crit:
            hold = live
            while c and hold:
                low = c & -c
                hold &= edges[low.bit_length() - 1]
                c ^= low
            live &= ~hold
        found.extend([s | 1 << v for v in bit_indices(live & complete)])
        cand &= ~f
        for v in bit_indices(live & ~complete):
            o = occ[v]
            bit = 1 << v
            kept = [c & ~o for c in crit]
            kept.append(uncov & o)
            stack.append((s | bit, kept, uncov & ~o, cand | f & (bit - 1)))
    return found


def premise_edges(ctx: Context, m: int) -> list[int]:
    """The row complements, less ``m``, of the object rows missing ``m``."""
    mask = ctx.universe.mask & ~(1 << m)
    return [mask & ~row for row in ctx.row_bits() if not row >> m & 1]


def premise_families(
    ctx: Context, transversals: Callable[[list[int]], list[int]] = minimal_transversals
) -> list[list[int]]:
    """Per attribute ``m``: every minimal set not containing ``m`` whose
    closure contains ``m``, in the order ``transversals`` lists them."""
    return [transversals(premise_edges(ctx, m)) for m in range(ctx.universe.size)]


def folded_pairs(families: list[list[int]]) -> dict[int, int]:
    """The premise families folded into the merged cdub pairs ``A -> R_A``,
    where ``R_A`` holds the attributes whose family holds ``A``."""
    merged: dict[int, int] = {}
    for m, premises in enumerate(families):
        for lhs in premises:
            merged[lhs] = merged.get(lhs, 0) | 1 << m
    return merged
