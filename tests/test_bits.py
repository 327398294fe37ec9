"""Raw-bit kernels, each against a per-bit scalar loop."""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from implbase.bits import (
    bit_indices,
    fixpoint_bits,
    memo,
    slice_pairs,
    sliced_fixpoint,
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


@given(SETS, st.lists(SETS, min_size=N, max_size=N))
def test_spread_ors_the_table_over_the_set_bits(bits, table):
    expected = 0
    for i in range(N):
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


@given(
    st.lists(st.tuples(SETS.filter(bool), SETS), max_size=12),
    st.lists(SETS, max_size=40),
)
@example([(0b1, 0b10), (0b10, 0b100), (0b100, 0b1000)], [0b1, 0])
def test_sliced_fixpoint_closes_every_lane_as_fixpoint_bits(pairs, sets):
    cols = sliced_fixpoint(transpose_bits(sets, N), slice_pairs(pairs))
    assert cols == transpose_bits([fixpoint_bits(bits, pairs) for bits in sets], N)


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
