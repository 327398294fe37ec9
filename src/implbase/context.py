"""Formal contexts and the closure operator they induce.

A context is an object-by-attribute incidence table.  The closure of an
attribute set is the intersection of all object rows containing it (the full
universe when no row does).  Besides the operator itself this module provides
clarification (dropping duplicate rows and columns), reduction (dropping rows
and columns that are intersections of others, full ones included), a seeded
synthetic generator, and Burmeister ``.cxt`` file I/O.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterator, Sequence

from .bits import memo, random_bits, transpose_bits
from .errors import (
    DegenerateContext,
    MalformedCxt,
    NotClarified,
    NotStandardContext,
    UnrenderableName,
)
from .sets import AttributeSet, Universe, _is_decimal

__all__ = [
    "Context",
    "is_clarified",
    "clarify",
    "is_reduced",
    "reduce",
    "is_standard",
    "require_standard",
    "gen_synthetic",
    "parse_cxt",
    "render_cxt",
    "read_cxt",
]


class Context:
    """An immutable incidence table over a fixed universe.

    Rows are attribute sets, one per object.  Optional object names are
    display labels only.  Contexts with zero objects are representable (they
    can arise transiently during reduction) but file I/O requires at least
    one object and one attribute.
    """

    __slots__ = ("universe", "rows", "object_names", "_cache")

    def __init__(
        self,
        universe: Universe,
        rows: Sequence[AttributeSet],
        object_names: Sequence[str] | None = None,
    ):
        rows = tuple(rows)
        for row in rows:
            if row.universe != universe:
                raise ValueError("row universe differs from context universe")
        if object_names is not None:
            object_names = tuple(object_names)
            if len(object_names) != len(rows):
                raise ValueError("one object name per row is required")
        self.universe = universe
        self.rows = rows
        self.object_names = object_names
        self._cache: dict[str, object] = {}

    @property
    def objects(self) -> int:
        return len(self.rows)

    def object_label(self, index: int) -> str:
        if self.object_names is not None:
            return self.object_names[index]
        return str(index)

    @memo
    def row_bits(self) -> tuple[int, ...]:
        return tuple([row.bits for row in self.rows])

    @memo
    def column_bits(self) -> tuple[int, ...]:
        """Per attribute: the extent as a bit mask over object positions."""
        return tuple(transpose_bits(self.row_bits(), self.universe.size))

    def closure_bits(self, bits: int) -> int:
        """Closure as raw bits; the intersection of all rows containing them."""
        acc = self.universe.mask
        for row in self.row_bits():
            if bits & row == bits:
                acc &= row
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.rows == other.rows
            and self.object_names == other.object_names
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.rows))

    def __iter__(self) -> Iterator[AttributeSet]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Context({self.objects} objects, {self.universe.size} attributes)"


# -- clarification and reduction --------------------------------------------


def is_clarified(ctx: Context) -> bool:
    rows = ctx.row_bits()
    if len(set(rows)) != len(rows):
        return False
    cols = ctx.column_bits()
    return len(set(cols)) == len(cols)


def clarify(ctx: Context) -> Context:
    """Drop duplicate rows and duplicate columns, keeping first occurrences.

    The concept lattice is unchanged up to renaming: equal rows describe the
    same object intent and equal columns the same attribute extent.  Both
    are found on the input: duplicate rows cannot tell two columns apart.
    """
    return _select(ctx, _distinct(ctx.row_bits()), _distinct(ctx.column_bits()))


def _distinct(values: Sequence[int]) -> list[int]:
    """Positions of the first occurrence of each value, in order."""
    first: dict[int, int] = {}
    for i, value in enumerate(values):
        first.setdefault(value, i)
    return list(first.values())


def _irreducible(values: Sequence[int], top: int) -> list[int]:
    """Positions of the members that are not the intersection of the other
    members containing them.

    The empty family intersects to ``top``, which is what flags full rows and
    full columns as redundant.
    """
    keep = []
    for i, target in enumerate(values):
        acc = top
        for j, value in enumerate(values):
            if j != i and value & target == target:
                acc &= value
        if acc != target:
            keep.append(i)
    return keep


def is_reduced(ctx: Context) -> bool:
    rows = ctx.row_bits()
    if len(_irreducible(rows, ctx.universe.mask)) != len(rows):
        return False
    cols = ctx.column_bits()
    return len(_irreducible(cols, (1 << ctx.objects) - 1)) == len(cols)


def reduce(ctx: Context) -> Context:
    """Drop every row and column that is an intersection of others.

    Requires a clarified context.  Full rows and full columns count as empty
    intersections and go as well, so afterwards nothing is implied by the
    empty set.  The closure system on the surviving attributes is exactly the
    projection of the original one.  Raises :class:`DegenerateContext` when
    nothing would remain on one of the two axes, rows checked first.

    One scan of each axis of the input is exact (Ganter & Wille 1999,
    reduction through the irreducible object and attribute concepts):

    * A reducible row is an intersection of rows that are kept: of the rows
      strictly above it, each is kept or, by induction from the top, an
      intersection of kept rows.  So removing the reducible rows leaves the
      closure system on the attributes unchanged.
    * Whether column ``m`` is reducible, ``m`` in ``clo(clo({m}) \\ {m})``,
      depends only on that closure system, so removing rows does not change
      it.
    * A row that is irreducible stays irreducible when other rows go,
      because an intersection over fewer rows is no smaller.

    The same holds with rows and columns swapped, so no removal on one axis
    makes anything reducible on either axis: a scan repeated after every
    removal keeps exactly what this one step keeps.
    """
    if not is_clarified(ctx):
        raise NotClarified("reduce requires a clarified context")
    rows = ctx.row_bits()
    keep_rows = _irreducible(rows, ctx.universe.mask)
    if rows and not keep_rows:
        raise DegenerateContext("reduction removed every object")
    cols = ctx.column_bits()
    keep_cols = _irreducible(cols, (1 << ctx.objects) - 1)
    if not keep_cols:
        raise DegenerateContext("reduction removed every attribute")
    return _select(ctx, keep_rows, keep_cols)


def _select(ctx: Context, row_idx: Sequence[int], col_idx: Sequence[int]) -> Context:
    """Sub-context on the given rows and columns, preserving labels."""
    if len(col_idx) == ctx.universe.size:
        universe = ctx.universe
        rows = [ctx.rows[i] for i in row_idx]
    else:
        names = (
            [ctx.universe.label(j) for j in col_idx]
            if ctx.universe.names is not None
            else None
        )
        universe = Universe(size=len(col_idx), names=names)
        cols = ctx.column_bits()
        kept = transpose_bits([cols[j] for j in col_idx], ctx.objects)
        rows = [AttributeSet(universe, kept[i]) for i in row_idx]
    object_names = (
        [ctx.object_label(i) for i in row_idx] if ctx.object_names is not None else None
    )
    return Context(universe, rows, object_names)


def is_standard(ctx: Context) -> bool:
    return is_clarified(ctx) and is_reduced(ctx)


def require_standard(ctx: Context) -> None:
    if not is_standard(ctx):
        raise NotStandardContext("a clarified and reduced context is required")


# -- synthetic generation ----------------------------------------------------


def gen_synthetic(objects: int, attributes: int, density: float, seed: int) -> Context:
    """Seeded random context, clarified and reduced before it is returned.

    Each incidence cell is an independent Bernoulli(``density``) draw.  The
    same arguments always produce the same context, byte for byte when
    written to disk.  Raises :class:`DegenerateContext` when clarification
    and reduction leave no rows or no columns (likely at extreme densities);
    callers should retry with a different seed.
    """
    if objects < 1:
        raise ValueError("at least one object is required")
    if attributes < 1:
        raise ValueError("at least one attribute is required")
    if not 0.0 < density < 1.0:
        raise ValueError("density must lie strictly between 0 and 1")
    universe = Universe(names=[f"m{j + 1}" for j in range(attributes)])
    rng = random.Random(seed)
    rows = [AttributeSet(universe, random_bits(rng, attributes, density)) for _ in range(objects)]
    raw = Context(universe, rows, [f"g{i + 1}" for i in range(objects)])
    return reduce(clarify(raw))


# -- Burmeister .cxt format --------------------------------------------------

#: A row's incidence cells, attribute 0 first: its bits in binary, reversed,
#: with a set bit written ``X`` and a clear one ``.``.  ``_NOT_CELLS`` keeps
#: only what is neither.
_TO_CELLS = str.maketrans("10", "X.")
_FROM_CELLS = str.maketrans("X.", "10")
_NOT_CELLS = str.maketrans("", "", "X.")


def _unreadable_reason(name: str) -> str | None:
    """Why :func:`parse_cxt` would not read ``name`` back as one line, if it
    would not."""
    if not name.strip():
        return "it is blank, and blank lines are skipped on reading"
    if name.splitlines() != [name]:
        return "it holds a line break, which splits it on reading"
    return None


def render_cxt(ctx: Context) -> str:
    """Serialise to the Burmeister layout: ``B``, blank line, counts, blank
    line, object names, attribute names, then one ``.``/``X`` line per row.

    Raises :class:`UnrenderableName` for unnamed objects or attributes, and
    for an object or attribute name that is blank or holds a line break,
    rather than writing a file that reads back differently or not at all.
    The format has no mark for unnamed positions: written as ``0 1 ...``
    they would read back as names, and the context as an unequal one.
    """
    if ctx.objects < 1 or ctx.universe.size < 1:
        raise MalformedCxt("cxt files need at least one object and one attribute")
    if ctx.object_names is None or ctx.universe.names is None:
        role = "objects" if ctx.object_names is None else "attributes"
        raise UnrenderableName(f"cannot write unnamed {role}: they would read back as names")
    names = [*ctx.object_names, *ctx.universe.names]
    # one pass over the joined names; only a refusal looks at them one by one
    if "\n".join(names).splitlines() != names or not all(map(str.strip, names)):
        for i, name in enumerate(names):
            reason = _unreadable_reason(name)
            if reason is not None:
                role = "object" if i < ctx.objects else "attribute"
                raise UnrenderableName(f"cannot write {role} name {name!r}: {reason}")
    lines = ["B", "", str(ctx.objects), str(ctx.universe.size), "", *names]
    spec = f"0{ctx.universe.size}b"
    lines.extend([format(bits, spec)[::-1].translate(_TO_CELLS) for bits in ctx.row_bits()])
    return "\n".join(lines) + "\n"


def parse_cxt(text: str) -> Context:
    """Parse the Burmeister layout; inverse of :func:`render_cxt`."""
    lines = (line for line in text.splitlines() if line.strip())

    def next_line() -> str:
        line = next(lines, None)
        if line is None:
            raise MalformedCxt("unexpected end of file")
        return line

    magic = next_line()
    if magic.strip() != "B":
        raise MalformedCxt(f"expected 'B' header, found {magic!r}")

    def next_count(label: str) -> int:
        token = next_line().strip()
        if not _is_decimal(token):
            raise MalformedCxt(f"expected {label} count, found {token!r}")
        value = int(token)
        if value < 1:
            raise MalformedCxt(f"{label} count must be positive")
        return value

    n_objects = next_count("object")
    n_attributes = next_count("attribute")
    object_names = [next_line() for _ in range(n_objects)]
    attribute_names = [next_line() for _ in range(n_attributes)]
    try:
        universe = Universe(names=attribute_names)
    except ValueError as exc:
        raise MalformedCxt(str(exc)) from exc
    rows = []
    for i in range(n_objects):
        line = next_line().strip()
        if len(line) != n_attributes:
            raise MalformedCxt(
                f"row {i}: expected {n_attributes} incidence cells, found {len(line)}"
            )
        bad = line.translate(_NOT_CELLS)
        if bad:
            raise MalformedCxt(f"row {i}: unexpected cell {bad[0]!r}")
        rows.append(AttributeSet(universe, int(line[::-1].translate(_FROM_CELLS), 2)))
    if next(lines, None) is not None:
        raise MalformedCxt("trailing content after incidence rows")
    return Context(universe, rows, object_names)


def read_cxt(path: str | Path) -> Context:
    return parse_cxt(Path(path).read_text(encoding="utf-8"))
