"""Raw-bit kernels, each against a per-bit scalar loop."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import lectic_key
from implbase.bits import (
    bit_indices,
    fixpoint_bits,
    lectic_keys,
    lectic_sorted,
    memo,
    round_bits,
    slice_pairs,
    sliced_fixpoint,
    sliced_round,
    spread,
    transpose_bits,
)

N = 9
SETS = st.integers(min_value=0, max_value=(1 << N) - 1)


@given(
    st.one_of(
        SETS,
        st.integers(min_value=0, max_value=(1 << 24) - 1),
        st.integers(min_value=1 << 24, max_value=(1 << 4000) - 1),
    )
)
@example(0)
@example(255)
@example(256)
@example(1 << 16)
@example((1 << 24) - 1)
@example(1 << 24)
@example((1 << 24) + 1)
def test_bit_indices_lists_the_set_bits_lowest_first(bits):
    # small sets read one byte table, sets below 2^24 all three, wider ones the loop
    assert bit_indices(bits) == tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


#: Table length of the spread test: sets reach past the 24 bits of the
#: byte tables.
SPREAD_WIDTH = 40


@given(
    st.one_of(
        SETS,
        st.integers(min_value=0, max_value=(1 << 24) - 1),
        st.integers(min_value=1 << 24, max_value=(1 << SPREAD_WIDTH) - 1),
    ),
    st.lists(SETS, min_size=SPREAD_WIDTH, max_size=SPREAD_WIDTH),
)
@example(0, list(range(1, SPREAD_WIDTH + 1)))
@example((1 << 24) - 1, [1 << i for i in range(SPREAD_WIDTH)])
@example(1 << 24, [1 << i for i in range(SPREAD_WIDTH)])
@example((1 << SPREAD_WIDTH) - 1, [1 << i for i in range(SPREAD_WIDTH)])
def test_spread_ors_the_table_over_the_set_bits(bits, table):
    # sets below 2^24 walk the byte tables, wider ones the lowest-bit loop
    expected = 0
    for i in range(SPREAD_WIDTH):
        if bits >> i & 1:
            expected |= table[i]
    assert spread(bits, table) == expected


@given(st.lists(SETS, max_size=40), st.integers(min_value=1, max_value=N))
@example([], 3)
def test_transpose_bits_matches_a_per_bit_loop(sets, n):
    sets = [bits & ((1 << n) - 1) for bits in sets]
    expected = [0] * n
    for q, bits in enumerate(sets):
        for a in range(n):
            if bits >> a & 1:
                expected[a] |= 1 << q
    assert transpose_bits(sets, n) == expected


#: Widths on both sides of each packed word (8, 16, 32 and 64 bits) and past
#: the widest, where up to 64 sets are read back as words and more sets are
#: formatted one by one.
BOUNDARIES = [1, 8, 9, 16, 17, 32, 33, 64, 65, 100, 200]


def per_bit_columns(sets: list[int], n: int) -> list[int]:
    cols = [0] * n
    for q, bits in enumerate(sets):
        for a in range(n):
            if bits >> a & 1:
                cols[a] |= 1 << q
    return cols


@pytest.mark.parametrize("n", BOUNDARIES)
@pytest.mark.parametrize("count", [0, 1, 2, 7, 8, 9, 16, 17, 32, 33, 63, 64, 65, 300])
def test_transpose_bits_matches_a_per_bit_loop_at_every_word_boundary(n, count):
    rng = random.Random(1000 * n + count)
    full = (1 << n) - 1
    sets = [rng.getrandbits(n) for _ in range(count)]
    # all-ones sets, the empty set and the single top and bottom bits
    sets[::3] = [full] * len(sets[::3])
    sets[1::7] = [0] * len(sets[1::7])
    sets[2::11] = [1 << (n - 1)] * len(sets[2::11])
    sets[3::13] = [1] * len(sets[3::13])
    assert transpose_bits(sets, n) == per_bit_columns(sets, n)
    assert transpose_bits([full] * count, n) == [(1 << count) - 1] * n


@pytest.mark.parametrize("n", range(1, 71))
def test_lectic_keys_order_sets_as_lectic_key_does(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    sets = [rng.getrandbits(n) for _ in range(200)] + [0, full, 1, 1 << (n - 1)]
    sets += sets[:20]  # repeats sort alike under either key
    keys = lectic_keys(sets, n)
    assert [sets[i] for i in sorted(range(len(sets)), key=keys.__getitem__)] == sorted(
        sets, key=lambda bits: lectic_key(bits, n)
    )
    # a packed key is the lectic key shifted past its word's padding
    width = next((w for w in (8, 16, 32, 64) if n <= w), n)
    assert list(keys) == [lectic_key(bits, n) << (width - n) for bits in sets]
    assert not lectic_keys([], n)
    # pairs sort by their lhs, and the repeated lhs keep their given order
    pairs = [(bits, place) for place, bits in enumerate(sets)]
    in_order = sorted(pairs, key=lambda pair: (lectic_key(pair[0], n), pair[1]))
    assert lectic_sorted(pairs, n) == in_order
    assert lectic_sorted([], n) == []


@given(
    st.lists(st.tuples(SETS.filter(bool), SETS), max_size=12),
    st.lists(SETS, max_size=40),
)
@example([(0b1, 0b10), (0b10, 0b100), (0b100, 0b1000)], [0b1, 0])
def test_sliced_fixpoint_closes_every_lane_as_fixpoint_bits(pairs, sets):
    cols = sliced_fixpoint(transpose_bits(sets, N), slice_pairs(pairs))
    assert cols == transpose_bits([fixpoint_bits(bits, pairs) for bits in sets], N)


def in_order_sweep(bits: int, pairs: list[tuple[int, int]]) -> int:
    """One in-order sweep over one set: each lhs is tested against the set
    grown so far."""
    for lhs, rhs in pairs:
        if lhs & bits == lhs:
            bits |= rhs
    return bits


@st.composite
def round_inputs(draw) -> tuple[int, list[tuple[int, int]], list[int]]:
    """A width of 1-70 attributes, implications with small left-hand sides,
    and lanes with some attributes held by no lane: an lhs AND then comes out
    empty at one of its columns, unless an earlier firing of an in-order
    round filled that column."""
    n = draw(st.integers(1, 70))
    full = (1 << n) - 1
    attrs = st.lists(st.integers(0, n - 1), min_size=1, max_size=3)
    sides = st.builds(lambda idx: sum(1 << a for a in set(idx)), attrs)
    pairs = draw(st.lists(st.tuples(sides, st.one_of(sides, st.integers(0, full))), max_size=12))
    unheld = draw(st.integers(0, full))
    lanes = draw(st.lists(st.integers(0, full), max_size=40))
    return n, pairs, [bits & ~unheld for bits in lanes]


@given(round_inputs(), st.booleans())
# lane 0 holds a0 only: the first AND stops empty at the a1 column, the
# in-order round then fires a0 -> a1 and the repeat fires; lane 1 is empty
@example((3, [(0b011, 0b100), (0b001, 0b010), (0b011, 0b100)], [0b001, 0]), True)
@example((3, [(0b011, 0b100), (0b001, 0b010), (0b011, 0b100)], [0b001, 0]), False)
def test_sliced_round_matches_a_round_in_each_lane(inputs, ordered):
    n, pairs, lanes = inputs
    want = [in_order_sweep(bits, pairs) if ordered else round_bits(bits, pairs) for bits in lanes]
    got = sliced_round(transpose_bits(lanes, n), slice_pairs(pairs), ordered)
    assert got == transpose_bits(want, n)


def test_memo_computes_once_per_instance():
    class Probe:
        def __init__(self):
            self._cache = {}
            self.calls = 0

        @memo
        def value(self):
            self.calls += 1
            return (self.calls,)

    a, b = Probe(), Probe()
    assert a.value() is a.value()
    assert b.value() == (1,)
    assert (a.calls, b.calls) == (1, 1)
    assert a._cache == {"value": (1,)}
