"""Raw-bit kernels shared by the rest of the package.

An attribute set is a plain int whose bit ``i`` stands for attribute ``i``,
and an implication is a ``(lhs, rhs)`` pair of such ints.  Everything here
works on those raw values only and imports nothing from the package, so every
other module can build on it without an import cycle.

The bit-sliced kernels process many sets at once by storing them column-wise:
one int per attribute, whose bit ``q`` (lane ``q``) is set iff set ``q``
holds that attribute.  An implication then fires in every lane at once: its
fire mask is the AND of its lhs columns, and that mask is ORed into its rhs
columns.  Sliced pairs list attribute indices instead of bits, and their
left-hand sides are never empty.

Sets of up to 64 attributes are laid out many at once: one ``struct.pack``
writes them as little-endian words of the narrowest machine width that holds
them (8, 16, 32 or 64 bits), and :func:`transpose_bits` and
:func:`lectic_keys` read all of them from that one buffer.  Wider sets are
formatted one call per set, as no machine word holds them.  At most 64 wider
sets have columns that each fit a machine word, so :func:`transpose_bits`
reads those columns back as words.  In this package such sets are the columns
of many lanes turned back into one set per lane (the dropped attributes in
the dbasis derivation, the closures and quasi-closed sets of the
pseudo-closed derivation) and the columns of a context of more than 64
objects.  More than 64 wider sets, as over a universe of more than 64
attributes, take the one-call-per-set path alone.
"""

from __future__ import annotations

import struct
from functools import wraps
from typing import TYPE_CHECKING, Callable, Collection, Sequence, TypeVar

if TYPE_CHECKING:
    from random import Random

__all__ = [
    "Sliced",
    "bit_indices",
    "spread",
    "random_bits",
    "round_bits",
    "fixpoint_bits",
    "transpose_bits",
    "lectic_sorted",
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
    """OR of ``table[i]`` over the set bits ``i``; 0 for no bits.

    Below ``1 << 24`` the positions come from the byte tables of
    :func:`bit_indices`; wider sets peel off their lowest bit in a loop.
    """
    acc = 0
    if bits < 1 << 24:
        for i in _LOW[bits & 255] + _MID[bits >> 8 & 255] + _HIGH[bits >> 16]:
            acc |= table[i]
        return acc
    while bits:
        low = bits & -bits
        acc |= table[low.bit_length() - 1]
        bits ^= low
    return acc


def random_bits(rng: Random, n: int, p: float) -> int:
    """A seeded random ``n``-attribute set: attribute ``j`` is in it iff the
    ``j``-th of ``n`` ``rng.random()`` draws, lowest attribute first, falls
    below ``p``."""
    bits = 0
    for j in range(n):
        if rng.random() < p:
            bits |= 1 << j
    return bits


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


#: The ``struct`` codes of the little-endian words, narrowest first, by width.
_WORDS = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))


def _packed(sets: Collection[int], n: int) -> tuple[bytes, int, str]:
    """The ``n``-attribute sets, ``n <= 64``, as one buffer of little-endian
    words of the narrowest width that holds ``n`` bits, with that width and
    its ``struct`` code."""
    width, code = next(word for word in _WORDS if n <= word[0])
    return struct.pack(f"<{len(sets)}{code}", *sets), width, code


#: Each binary digit mapped to the byte value it stands for.
_ONES = bytes.maketrans(b"01", b"\0\1")


def _wide_columns(sets: Sequence[int], n: int) -> list[int]:
    """Columns of at most 64 sets of ``n > 64`` attributes, each column read
    back as one machine word.

    Each set becomes one byte per attribute, 0 or 1, read as one int with
    attribute ``a`` in byte ``a``; the eight sets of a group are shifted by
    their place in it and ORed, so byte ``a`` of the group's int holds those
    eight lanes of column ``a``.  The groups' bytes interleave into one
    buffer of ``n`` little-endian words of the narrowest width that holds
    every lane, which one ``struct.unpack`` reads.
    """
    width, code = next(word for word in _WORDS if len(sets) <= word[0])
    stride = width >> 3
    spec = f"0{n}b"
    buffer = bytearray(n * stride)
    for group in range(0, len(sets), 8):
        acc = 0
        for place, bits in enumerate(sets[group : group + 8]):
            acc |= int.from_bytes(format(bits, spec).encode().translate(_ONES), "big") << place
        buffer[group >> 3 :: stride] = acc.to_bytes(n, "little")
    return list(struct.unpack(f"<{n}{code}", buffer))


def transpose_bits(sets: Sequence[int], n: int) -> list[int]:
    """Columns of a list of ``n``-attribute sets, set ``q`` in lane ``q``.

    One binary string, last set first, so that the strided slice of
    attribute ``a`` reads as an int with set 0 in its lowest bit.  Up to 64
    attributes the string is the packed words read as one int, each set
    padded to its word; more than 64 wider sets are formatted one by one.
    At most 64 wider sets give columns of at most 64 lanes, which
    :func:`_wide_columns` reads back as machine words instead, one
    ``struct.unpack`` for all of them.  No sets give ``n`` empty columns.
    """
    if not sets:
        return [0] * n
    if n <= 64:
        data, width, _ = _packed(sets, n)
        text = format(int.from_bytes(data, "little"), f"0{8 * len(data)}b")
    elif len(sets) <= 64:
        return _wide_columns(sets, n)
    else:
        width, spec = n, f"0{n}b"
        text = "".join([format(bits, spec) for bits in reversed(sets)])
    return [int(text[width - 1 - a :: width], 2) for a in range(n)]


#: Each byte with its eight bits in reverse order.
_MIRROR = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def _lectic_key(bits: int, n: int) -> int:
    """Sort key of the lectic order on ``n``-attribute sets: earlier
    attribute positions weigh more, so of two distinct sets the smaller is
    the one missing the smallest attribute in which they differ.

    The key is ``bits`` mirrored over ``n`` positions: each little-endian
    byte mirrored through ``_MIRROR``, read big-endian, shifted past the
    padding."""
    nb = (n + 7) >> 3
    return int.from_bytes(bits.to_bytes(nb, "little").translate(_MIRROR), "big") >> (8 * nb - n)


def lectic_keys(sets: Collection[int], n: int) -> Sequence[int]:
    """Sort keys of the ``n``-attribute sets that order them as
    :func:`_lectic_key`, the mirrored key, does.

    Up to 64 attributes the sets are packed little-endian, every byte is
    mirrored through ``_MIRROR`` and the words are read back big-endian, so
    each key is the lectic key shifted left past the ``width - n`` bits of
    padding of its word, and lies below ``1 << 64``.  Wider sets are keyed
    one by one, each key the lectic key itself, below ``1 << n``.
    """
    if n <= 64:
        data, _, code = _packed(sets, n)
        return struct.unpack(f">{len(sets)}{code}", data.translate(_MIRROR))
    return [_lectic_key(bits, n) for bits in sets]


def lectic_sorted(pairs: Pairs, n: int) -> list[tuple[int, int]]:
    """The pairs in lectic order of their ``n``-attribute left-hand sides,
    pairs with equal left-hand sides in their given order, keyed by one
    :func:`lectic_keys` call."""
    keys = lectic_keys([lhs for lhs, _ in pairs], n)
    return [pairs[i] for i in sorted(range(len(pairs)), key=keys.__getitem__)]


def slice_pairs(pairs: Pairs) -> Sliced:
    """Implications as ``(lhs indices, rhs indices)`` for the sliced kernels."""
    return [(bit_indices(lhs), bit_indices(rhs)) for lhs, rhs in pairs]


def sliced_round(cols: list[int], sliced: Sliced, ordered: bool) -> list[int]:
    """One round in every lane.  Simultaneous: every lhs is tested against the
    input columns.  Ordered: against the columns grown so far, as in one
    in-order sweep.

    An implication's lhs columns are ANDed one at a time, and the AND stops
    at the first empty result: no lane can fire, whatever the columns left,
    so the rhs ORs are skipped too.  Neither round's result depends on the
    stop, and an implication that fires nowhere costs only the ANDs it
    takes to see that.
    """
    out = list(cols)
    src = out if ordered else cols
    for lhs, rhs in sliced:
        fire = -1
        for a in lhs:
            fire &= src[a]
            if not fire:
                break
        else:
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
