"""Raw-bit kernels shared by the rest of the package.

An attribute set is a plain int whose bit ``i`` stands for attribute ``i``,
and an implication is a ``(lhs, rhs)`` pair of such ints.  Everything here
works on those raw values only and imports nothing from the package, so every
other module can build on it without an import cycle.

The bit-sliced kernels process many sets at once by storing them column-wise:
one int per attribute, whose bit ``q`` (lane ``q``) is set iff set ``q``
holds that attribute.  An implication then fires in every lane at once: its
fire mask is the AND of its lhs columns, and that mask is ORed into its rhs
columns.  Sliced pairs list attribute indices instead of bits; left-hand
sides are never empty, so every AND has a first operand.
"""

from __future__ import annotations

from functools import reduce, wraps
from operator import and_
from typing import Callable, Sequence, TypeVar

__all__ = [
    "Sliced",
    "bit_indices",
    "spread",
    "round_bits",
    "fixpoint_bits",
    "transpose_bits",
    "slice_pairs",
    "sliced_round",
    "sliced_fixpoint",
    "memo",
]

Pairs = Sequence[tuple[int, int]]
#: Implications as ``(lhs indices, rhs indices)`` for the sliced kernels.
Sliced = list[tuple[tuple[int, ...], tuple[int, ...]]]
T = TypeVar("T")


#: Per byte position ``k`` below 24 bits: the positions of the set bits of
#: each byte value, offset by ``8 * k``.
_LOW, _MID, _HIGH = (
    tuple([tuple([8 * k + i for i in range(8) if byte >> i & 1]) for byte in range(256)])
    for k in range(3)
)


def bit_indices(bits: int) -> tuple[int, ...]:
    """Positions of the set bits, lowest first.

    Below ``1 << 24`` the positions are three byte-table lookups joined;
    wider sets peel off their lowest bit in a loop.
    """
    if bits < 1 << 24:
        return _LOW[bits & 255] + _MID[bits >> 8 & 255] + _HIGH[bits >> 16]
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def spread(bits: int, table: Sequence[int]) -> int:
    """OR of ``table[i]`` over the set bits ``i``; 0 for no bits."""
    acc = 0
    while bits:
        low = bits & -bits
        acc |= table[low.bit_length() - 1]
        bits ^= low
    return acc


def round_bits(bits: int, pairs: Pairs) -> int:
    """One simultaneous round: add the rhs of every implication whose lhs is
    contained in the *input*; additions never enable further firings within
    the same round."""
    acc = bits
    for lhs, rhs in pairs:
        if lhs & bits == lhs:
            acc |= rhs
    return acc


def fixpoint_bits(bits: int, pairs: Pairs) -> int:
    """Iterate simultaneous rounds until nothing changes."""
    while True:
        nxt = round_bits(bits, pairs)
        if nxt == bits:
            return bits
        bits = nxt


def transpose_bits(sets: Sequence[int], n: int) -> list[int]:
    """Columns of a list of ``n``-attribute sets, set ``q`` in lane ``q``.

    One binary string per set, written last set first, so that the strided
    slice of attribute ``a`` reads as an int with set 0 in its lowest bit.
    No sets give ``n`` empty columns.
    """
    if not sets:
        return [0] * n
    spec = f"0{n}b"
    text = "".join([format(bits, spec) for bits in reversed(sets)])
    return [int(text[n - 1 - a :: n], 2) for a in range(n)]


def slice_pairs(pairs: Pairs) -> Sliced:
    """Implications as ``(lhs indices, rhs indices)`` for the sliced kernels."""
    return [(bit_indices(lhs), bit_indices(rhs)) for lhs, rhs in pairs]


def sliced_round(cols: list[int], sliced: Sliced, ordered: bool) -> list[int]:
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


def sliced_fixpoint(cols: list[int], sliced: Sliced) -> list[int]:
    """In-order rounds in every lane until no column changes; each lane ends
    at the closure of its set, as :func:`fixpoint_bits` gives it."""
    while True:
        grown = sliced_round(cols, sliced, ordered=True)
        if grown == cols:
            return cols
        cols = grown


def memo(method: Callable[[object], T]) -> Callable[[object], T]:
    """Keep an argument-less method's result in the instance's ``_cache``
    dict, under the method's name, from its first call on.  The result must
    never be ``None``."""
    key = method.__name__

    @wraps(method)
    def cached(self):
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = method(self)
        return got

    return cached
