"""Seeded contexts with a planted attribute hierarchy.

Uniform Bernoulli contexts (``implbase.gen_synthetic``) almost never have
binary implications, so their dbasis has an empty binary prefix and is as
large as the cdub.  Here every attribute but the roots gets a random parent,
and an object that has an attribute also has all of its ancestors.  The
planted extent inclusions survive standardisation as binary implications,
which puts the dbasis prefix and its pre-closure on the hot path.
"""

from __future__ import annotations

import random

from implbase.context import Context, clarify, reduce
from implbase.sets import AttributeSet, Universe

#: Probability that an attribute after the first is a root.
ROOT_SHARE = 0.2


def gen_hierarchy(objects: int, attributes: int, density: float, seed: int) -> Context:
    """Clarified and reduced context over a random attribute forest.

    Attribute ``j > 0`` is a root with probability ``ROOT_SHARE`` and
    otherwise gets a parent drawn uniformly from ``0 .. j-1``.  Each object
    draws every attribute with probability ``density`` and then gets the
    ancestors of what it drew.  Standardisation may drop a few attributes,
    so the result can have fewer than ``attributes``.
    """
    if objects < 1 or attributes < 1:
        raise ValueError("at least one object and one attribute are required")
    if not 0.0 < density < 1.0:
        raise ValueError("density must lie strictly between 0 and 1")
    rng = random.Random(seed)
    ancestors: list[int] = []
    for j in range(attributes):
        own = 1 << j
        if j and rng.random() >= ROOT_SHARE:
            own |= ancestors[rng.randrange(j)]
        ancestors.append(own)
    universe = Universe(names=[f"m{j + 1}" for j in range(attributes)])
    rows = []
    for _ in range(objects):
        bits = 0
        for j in range(attributes):
            if rng.random() < density:
                bits |= ancestors[j]
        rows.append(AttributeSet(universe, bits))
    raw = Context(universe, rows, [f"g{i + 1}" for i in range(objects)])
    return reduce(clarify(raw))
