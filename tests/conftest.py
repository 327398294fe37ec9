"""Shared fixtures and small builders for the test suite.

``ex51`` is the worked four-attribute example used throughout: objects
{a,c}, {c,d}, {a}, {b}.  Its bases, closures, and counters are known by
hand and serve as frozen reference values.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from implbase.context import Context, clarify, parse_cxt, reduce
from implbase.errors import DegenerateContext
from implbase.sets import AttributeSet, Universe

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

EX51_CXT = FIXTURES / "ex51.cxt"
EX51_IMP = FIXTURES / "ex51.imp"


def aset(universe: Universe, tokens: str) -> AttributeSet:
    """Attribute set from a token string like ``"b d"``."""
    bits = 0
    for token in tokens.split():
        bits |= 1 << universe.resolve(token)
    return AttributeSet(universe, bits)


def ctx_from_rows(names: list[str], rows: list[str]) -> Context:
    """Context from attribute names and one token string per object."""
    universe = Universe(names=names)
    return Context(universe, [aset(universe, row) for row in rows])


def contranominal(n: int) -> Context:
    """Each object misses exactly one attribute; every subset is closed."""
    universe = Universe(names=[chr(ord("a") + i) for i in range(n)])
    rows = [AttributeSet(universe, universe.mask & ~(1 << i)) for i in range(n)]
    return Context(universe, rows)


def random_standard_context(
    rng: random.Random,
    attributes: int,
    objects: int | None = None,
    density: float | None = None,
) -> Context:
    """A standard context drawn from ``rng``, retrying degenerate draws."""
    if objects is None:
        objects = max(3, 2 * attributes)
    if density is None:
        density = rng.uniform(0.3, 0.6)
    universe = Universe(names=[f"m{j}" for j in range(attributes)])
    while True:
        rows = []
        for _ in range(objects):
            bits = 0
            for j in range(attributes):
                if rng.random() < density:
                    bits |= 1 << j
            rows.append(AttributeSet(universe, bits))
        try:
            ctx = reduce(clarify(Context(universe, rows)))
        except DegenerateContext:
            continue
        if ctx.objects >= 1 and ctx.universe.size >= 1:
            return ctx


def lectic_key(bits: int, n: int) -> int:
    """The lectic sort key of an ``n``-attribute set, read off its bit
    string: ``bits`` mirrored over ``n`` positions, so earlier attributes
    weigh more."""
    return int(format(bits, f"0{n}b")[::-1], 2)


def planes_of(sizes: list[int]) -> tuple[int, ...]:
    """Per-lane ``sizes`` as bit planes over the lanes, one bit per lane and
    plane: the layout of ``Basis.lhs_planes``, built one lane at a time."""
    width = max(sizes, default=0).bit_length()
    return tuple(
        sum(1 << i for i, size in enumerate(sizes) if size >> j & 1) for j in range(width)
    )


def closed_family(ctx: Context) -> frozenset[int]:
    """All closed attribute sets of a small context, as raw bit masks."""
    n = ctx.universe.size
    assert n <= 16, "exhaustive closure family only for small universes"
    return frozenset(
        bits for bits in range(1 << n) if ctx.closure_bits(bits) == bits
    )


@pytest.fixture(scope="session")
def ex51() -> Context:
    return parse_cxt(EX51_CXT.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def chain3() -> Context:
    return ctx_from_rows(["a", "b", "c"], ["", "a", "a b"])
