"""Attribute universes, bit-vector attribute sets, implications, and bases.

This module is the vocabulary for everything else in the package: a
:class:`Universe` fixes the attribute alphabet once, an :class:`AttributeSet`
is an immutable bit vector over it, an :class:`Implication` is a single
dependency ``lhs -> rhs`` with a non-empty left-hand side, and a
:class:`Basis` is an ordered sequence of implications tagged with the
construction that produced it.

A basis stores its implications as raw ``(lhs_bits, rhs_bits)`` int pairs,
the form every algorithm and kernel reads; the builders and
:func:`parse_basis` produce pairs and check them in int arithmetic, and the
:class:`Implication` objects are a lazy view built only when read.

All values are immutable after construction, so they can be shared freely
across threads and processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import chain
from operator import or_
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

from .bits import bit_indices, memo, spread, transpose_bits
from .errors import (
    EmptyLhs,
    ImplicationSyntaxError,
    InvalidBasis,
    UniverseMismatch,
    UnknownAttribute,
    UnrenderableName,
)

#: Hard cap on universe width; keeps bit masks and file formats sane.
MAX_UNIVERSE_SIZE = 1024


def _is_decimal(token: str) -> bool:
    """ASCII digits only: ``str.isdigit`` alone also takes ``²`` and ``١``."""
    return token.isascii() and token.isdigit()


def _out_of_range(index: int) -> UnknownAttribute:
    """The refusal of an attribute position outside its universe, worded once
    for :meth:`Universe.subset`, :class:`AttributeSet` and :class:`Basis`."""
    return UnknownAttribute(f"attribute index {index} out of range")


def _check_range(bits: int, size: int) -> None:
    """Refuse ``bits`` that hold a position at or above ``size``, as a
    negative int does, naming the lowest such position."""
    high = bits >> size
    if high:
        raise _out_of_range(size + (high & -high).bit_length() - 1)


class Universe:
    """A fixed, ordered alphabet of at most ``MAX_UNIVERSE_SIZE`` attributes.

    Attributes are addressed by position.  Optional display names must be
    unique; when absent, the decimal position doubles as the display label.
    """

    __slots__ = ("size", "names", "mask", "_index")

    def __init__(self, size: int | None = None, names: Sequence[str] | None = None):
        if names is not None:
            names = tuple(names)
            if size is None:
                size = len(names)
            elif size != len(names):
                raise ValueError("size does not match the number of names")
            if len(set(names)) != len(names):
                raise ValueError("attribute names must be unique")
        if size is None:
            raise ValueError("either size or names is required")
        if not 1 <= size <= MAX_UNIVERSE_SIZE:
            raise ValueError(f"universe size must be in 1..{MAX_UNIVERSE_SIZE}")
        self.size: int = size
        self.names: tuple[str, ...] | None = names
        self.mask: int = (1 << size) - 1
        self._index: dict[str, int] = (
            {name: i for i, name in enumerate(names)} if names else {}
        )

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Universe):
            return NotImplemented
        return self.size == other.size and self.names == other.names

    def __hash__(self) -> int:
        return hash((self.size, self.names))

    def __repr__(self) -> str:
        shown = " ".join(self.label(i) for i in range(min(self.size, 8)))
        tail = " ..." if self.size > 8 else ""
        return f"Universe({self.size}: {shown}{tail})"

    def label(self, index: int) -> str:
        """Display label of one attribute position."""
        if self.names is not None:
            return self.names[index]
        return str(index)

    def resolve(self, token: str) -> int:
        """Map an attribute name or decimal position to its index."""
        if token in self._index:
            return self._index[token]
        if _is_decimal(token):
            index = int(token)
            if 0 <= index < self.size:
                return index
        raise UnknownAttribute(f"unknown attribute {token!r}")

    def full(self) -> AttributeSet:
        return AttributeSet(self, self.mask)

    def subset(self, items: Iterable[int | str]) -> AttributeSet:
        """Build a set from attribute indices and/or names."""
        bits = 0
        for item in items:
            index = item if isinstance(item, int) else self.resolve(item)
            if not 0 <= index < self.size:
                raise _out_of_range(index)
            bits |= 1 << index
        return AttributeSet(self, bits)


@dataclass(frozen=True, slots=True)
class AttributeSet:
    """An immutable subset of a universe, stored as an int bit vector.

    Bit ``i`` corresponds to attribute position ``i``.  A bit at or above
    the universe size, or a negative ``bits``, is refused with
    :class:`UnknownAttribute`, as :meth:`Universe.subset` and :class:`Basis`
    refuse one; set algebra is done on ``bits``.
    """

    universe: Universe
    bits: int = 0

    def __post_init__(self) -> None:
        _check_range(self.bits, self.universe.size)

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe.size and bool(self.bits >> index & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(bit_indices(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.label(i) for i in self)

    def __str__(self) -> str:
        return " ".join(self.labels())

    def __repr__(self) -> str:
        return f"AttributeSet([{self}])"


_new = object.__new__
_put_universe = AttributeSet.__dict__["universe"].__set__
_put_bits = AttributeSet.__dict__["bits"].__set__


def _trusted_set(universe: Universe, bits: int) -> AttributeSet:
    """The :class:`AttributeSet` of ``bits``, which the caller guarantees lie
    inside ``universe``, built without the constructor's range check.

    Equal to, and hashing like, ``AttributeSet(universe, bits)``.
    """
    result = _new(AttributeSet)
    _put_universe(result, universe)
    _put_bits(result, bits)
    return result


@dataclass(frozen=True, slots=True)
class Implication:
    """One dependency ``lhs -> rhs`` over a shared universe.

    The left-hand side is never empty; both sides live in the same universe.
    The right-hand side may legitimately be empty (such an implication never
    adds anything and is kept only if a caller builds it explicitly).
    """

    lhs: AttributeSet
    rhs: AttributeSet

    def __post_init__(self) -> None:
        if self.lhs.universe != self.rhs.universe:
            raise UniverseMismatch("lhs and rhs belong to different universes")
        if not self.lhs:
            raise EmptyLhs("implication left-hand side must be non-empty")

    @property
    def universe(self) -> Universe:
        return self.lhs.universe

    def __str__(self) -> str:
        """The line :func:`parse_implication` reads back."""
        return _line(str(self.lhs), str(self.rhs))

    def __repr__(self) -> str:
        return f"Implication({self})"


class BasisKind(str, Enum):
    """How a basis was constructed; drives validation and algorithm choice."""

    RAW = "raw"
    CDUB = "cdub"
    DBASIS = "dbasis"
    DG = "dg"


class Basis:
    """An ordered, immutable sequence of implications with a kind tag.

    The stored form is the raw ``(lhs_bits, rhs_bits)`` pairs that every
    algorithm reads through :meth:`pairs`, whichever constructor made the
    basis; :attr:`implications` is a lazy view that builds the
    :class:`Implication` objects on first read only, even for a basis given
    them.

    ``sigma0_len`` is meaningful for :attr:`BasisKind.DBASIS` only: the first
    ``sigma0_len`` implications form the binary prefix (single-attribute
    left-hand sides) that the direct algorithms pre-close against.  Structural
    rules are enforced at construction:

    * every implication shares the basis universe,
    * ``cdub`` and ``dg`` bases never repeat a left-hand side,
    * a ``dbasis`` prefix has unit left-hand sides and its tail has
      left-hand sides of at least two attributes.

    Derived read-only structures (the implications, per-attribute occurrence
    lists, the joint lhs|rhs columns and their lhs half, the left-hand-side
    sizes in bit planes, reachability over the binary prefix, the hash) are
    built lazily once, each by its own method, and then shared; they never
    mutate the logical value.
    """

    __slots__ = ("_pairs", "kind", "sigma0_len", "universe", "_cache")

    def __init__(
        self,
        implications: Iterable[Implication],
        kind: BasisKind = BasisKind.RAW,
        sigma0_len: int = 0,
        universe: Universe | None = None,
    ):
        impls = tuple(implications)
        if universe is None:
            if not impls:
                raise ValueError("an empty basis needs an explicit universe")
            universe = impls[0].universe
        for impl in impls:
            if impl.universe != universe:
                raise UniverseMismatch("implication universe differs from basis universe")
        pairs = tuple([(impl.lhs.bits, impl.rhs.bits) for impl in impls])
        self._store(pairs, kind, sigma0_len, universe)

    @classmethod
    def _from_pairs(
        cls,
        pairs: Iterable[tuple[int, int]],
        kind: BasisKind,
        sigma0_len: int = 0,
        *,
        universe: Universe,
    ) -> Basis:
        """A basis straight from raw pairs, checked as the public constructor
        and :class:`Implication` check theirs, without building any object."""
        pairs = tuple(pairs)
        size = universe.size
        # The smallest lhs and the OR of every side catch any fault in two
        # passes; the loop only finds the first faulty pair and names it.
        if pairs and (min(pairs)[0] < 1 or reduce(or_, chain.from_iterable(pairs)) >> size):
            for lhs, rhs in pairs:
                _check_range(lhs, size)
                _check_range(rhs, size)
                if not lhs:
                    raise EmptyLhs("implication left-hand side must be non-empty")
        basis = cls.__new__(cls)
        basis._store(pairs, kind, sigma0_len, universe)
        return basis

    def _store(
        self,
        pairs: tuple[tuple[int, int], ...],
        kind: BasisKind,
        sigma0_len: int,
        universe: Universe,
    ) -> None:
        """Check the structural rules on the pairs and store them."""
        kind = BasisKind(kind)
        if kind is BasisKind.DBASIS:
            if not 0 <= sigma0_len <= len(pairs):
                raise InvalidBasis("sigma0_len out of range")
            sizes = [lhs.bit_count() for lhs, _ in pairs]
            if max(sizes[:sigma0_len], default=1) != 1:
                raise InvalidBasis("binary prefix requires unit left-hand sides")
            if min(sizes[sigma0_len:], default=2) < 2:
                raise InvalidBasis("dbasis tail requires left-hand sides of size >= 2")
        elif sigma0_len != 0:
            raise InvalidBasis("sigma0_len is only meaningful for a dbasis")
        elif kind in (BasisKind.CDUB, BasisKind.DG):
            lhs_all = [lhs for lhs, _ in pairs]
            if len(set(lhs_all)) < len(lhs_all):
                seen: set[int] = set()
                for lhs in lhs_all:
                    if lhs in seen:
                        shown = AttributeSet(universe, lhs)
                        raise InvalidBasis(f"duplicate left-hand side {{{shown}}}")
                    seen.add(lhs)
        self._pairs = pairs
        self.kind = kind
        self.sigma0_len = sigma0_len
        self.universe = universe
        self._cache: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Implication]:
        return iter(self.implications)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.sigma0_len == other.sigma0_len
            and self.universe == other.universe
            and self._pairs == other._pairs
        )

    @memo
    def __hash__(self) -> int:
        """The hash of the kind, ``sigma0_len`` and pairs, kept from the first
        call on: memos keyed by a basis look it up on every call, and the
        pairs tuple of a large basis takes milliseconds to hash."""
        return hash((self.kind, self.sigma0_len, self._pairs))

    def __repr__(self) -> str:
        return f"Basis({self.kind.value}, {len(self._pairs)} implications)"

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Implications as raw ``(lhs_bits, rhs_bits)`` pairs: the stored form."""
        return self._pairs

    @property
    @memo
    def implications(self) -> tuple[Implication, ...]:
        """The pairs as :class:`Implication` objects, built on first read."""
        u = self.universe
        return tuple(
            [Implication(AttributeSet(u, lhs), AttributeSet(u, rhs)) for lhs, rhs in self._pairs]
        )

    # -- derived read-only structures ------------------------------------

    @memo
    def attr_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per attribute: indices of implications whose lhs contains it, in
        one walk over the pairs."""
        lists: list[list[int]] = [[] for _ in range(self.universe.size)]
        for i, (lhs, _) in enumerate(self._pairs):
            for a in bit_indices(lhs):
                lists[a].append(i)
        return tuple(map(tuple, lists))

    @memo
    def joint_masks(self) -> tuple[int, ...]:
        """Per attribute: its lhs column and its rhs column over the
        implication indices in one int.  With ``m`` implications, bit ``i``
        of column ``a`` is set iff implication ``i``'s lhs holds ``a``, and
        bit ``m + i`` iff its rhs does.  One :func:`transpose_bits` of the
        ``m`` left-hand sides followed by the ``m`` right-hand sides builds
        the lhs and rhs columns together."""
        sides = [lhs for lhs, _ in self._pairs] + [rhs for _, rhs in self._pairs]
        return tuple(transpose_bits(sides, self.universe.size))

    @memo
    def attr_masks(self) -> tuple[int, ...]:
        """Per attribute: bit mask over the indices of the implications whose
        lhs contains it, same content as :meth:`attr_lists` but usable with
        int arithmetic; the low ``m`` bits of :meth:`joint_masks`."""
        low = (1 << len(self._pairs)) - 1
        return tuple([column & low for column in self.joint_masks()])

    @memo
    def lhs_planes(self) -> tuple[int, ...]:
        """The lhs sizes as bit planes over the implication indices: bit
        ``i`` of plane ``j`` is bit ``j`` of the size of implication ``i``'s
        lhs, and the last plane is nonzero.  The per-call counters of the
        counting closure algorithms start here.  Built as the lane-wise sum
        of the :meth:`attr_masks` columns, one ripple-carry add per
        column."""
        planes: list[int] = []
        for carry in self.attr_masks():
            j = 0
            while carry:
                if j == len(planes):
                    planes.append(0)
                plane = planes[j]
                planes[j] = plane ^ carry
                carry &= plane
                j += 1
        return tuple(planes)

    @memo
    def binary_reach(self) -> tuple[int, ...]:
        """Per attribute: everything reachable from it over the binary prefix.

        ``reach[a]`` always contains ``a`` itself.  Only meaningful for a
        ``dbasis``; callers guard the kind.
        """
        n = self.universe.size
        reach = [1 << a for a in range(n)]
        for lhs, rhs in self.pairs()[: self.sigma0_len]:
            reach[lhs.bit_length() - 1] |= rhs
        changed = True
        while changed:
            changed = False
            for a in range(n):
                acc = spread(reach[a], reach)
                if acc != reach[a]:
                    reach[a] = acc
                    changed = True
        return tuple(reach)


def _merge_pairs(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Each lhs of the raw pairs with the OR of its rhs, in first-seen order."""
    merged: dict[int, int] = {}
    for lhs, rhs in pairs:
        merged[lhs] = merged.get(lhs, 0) | rhs
    return merged


def merge_same_lhs(basis: Basis) -> Basis:
    """Collapse implications sharing a left-hand side into one.

    The right-hand sides are unioned and the first occurrence keeps its
    position.  For a ``dbasis`` the binary prefix and the tail are merged
    separately, so the prefix boundary stays meaningful.  Equivalence is
    preserved: a merged implication fires exactly when each of its parts did.
    """
    pairs = basis.pairs()
    universe = basis.universe
    if basis.kind is BasisKind.DBASIS:
        prefix = _merge_pairs(pairs[: basis.sigma0_len])
        tail = _merge_pairs(pairs[basis.sigma0_len :])
        return Basis._from_pairs(
            [*prefix.items(), *tail.items()], BasisKind.DBASIS, len(prefix), universe=universe
        )
    return Basis._from_pairs(_merge_pairs(pairs).items(), basis.kind, universe=universe)


def unit_expand(basis: Basis) -> set[tuple[int, int]]:
    """The basis as a set of unit dependencies ``(lhs_bits, attribute)``.

    Reflexive units (attribute already in the lhs) are kept out, so two bases
    compare equal here exactly when they state the same unit dependencies.
    """
    return {(lhs, a) for lhs, rhs in basis.pairs() for a in bit_indices(rhs & ~lhs)}


# -- text format -----------------------------------------------------------

ARROW = "->"


def parse_implication(text: str, universe: Universe) -> Implication:
    """Parse ``"a b -> c d"`` over the given universe.

    Attribute tokens are display names or decimal positions.  Raises
    :class:`ImplicationSyntaxError` for a missing arrow,
    :class:`EmptyLhs` for an empty left side, and
    :class:`UnknownAttribute` for an unresolvable token.
    """
    lhs_tokens, rhs_tokens = _split(text)
    return Implication(universe.subset(lhs_tokens), universe.subset(rhs_tokens))


def _split(text: str) -> tuple[list[str], list[str]]:
    """The lhs and rhs tokens of one implication line, syntax checked."""
    head, sep, tail = text.partition(ARROW)
    if not sep:
        raise ImplicationSyntaxError(f"missing {ARROW!r} in {text!r}")
    if ARROW in tail:
        raise ImplicationSyntaxError(f"more than one {ARROW!r} in {text!r}")
    lhs_tokens = head.split()
    if not lhs_tokens:
        raise EmptyLhs(f"empty left-hand side in {text!r}")
    return lhs_tokens, tail.split()


def _line(lhs: str, rhs: str) -> str:
    """One implication line from the two rendered sides."""
    return f"{lhs} {ARROW} {rhs}".rstrip()


def _unrenderable_reason(name: str) -> str | None:
    """Why :func:`parse_basis` would not read ``name`` back, if it would not."""
    if not name or any(ch.isspace() for ch in name):
        return "it is empty or holds whitespace, which separates tokens"
    if ARROW in name:
        return f"it contains {ARROW!r}"
    if name.startswith("#"):
        return "a line starting with it reads as a comment"
    if name.lower().startswith("universe:"):
        return "a line starting with it reads as the universe line"
    return None


def render_basis(basis: Basis) -> str:
    """Canonical text form: kind header, prefix length for a dbasis, the
    universe line (``# size: n`` for an unnamed universe, whose attributes
    are written as decimal positions), then one implication per line.

    Raises :class:`UnrenderableName` for an attribute name the text form
    cannot hold, rather than writing a file that reads back differently.
    """
    universe = basis.universe
    for name in universe.names or ():
        reason = _unrenderable_reason(name)
        if reason is not None:
            raise UnrenderableName(f"cannot write attribute {name!r}: {reason}")
    lines = [f"# kind: {basis.kind.value}"]
    if basis.kind is BasisKind.DBASIS:
        lines.append(f"# sigma0_len: {basis.sigma0_len}")
    if universe.names is None:
        lines.append(f"# size: {universe.size}")
    else:
        lines.append(f"universe: {' '.join(universe.names)}")
    labels = [universe.label(i) for i in range(universe.size)]
    get = labels.__getitem__
    for lhs, rhs in basis.pairs():
        lines.append(
            _line(" ".join(map(get, bit_indices(lhs))), " ".join(map(get, bit_indices(rhs))))
        )
    return "\n".join(lines) + "\n"


def _declare(declared: Universe, expected: Universe | None) -> Universe:
    """The universe a header declares, if it agrees with the expected one."""
    if expected is not None and expected != declared:
        raise UniverseMismatch("declared universe differs from the expected one")
    return declared


def _named(names: Collection[str], source: str) -> Universe:
    """The universe of the names a basis file gives, with repeated names,
    more than ``MAX_UNIVERSE_SIZE`` of them, or a name that
    :func:`render_basis` refuses refused as a syntax error: such a name
    makes the file misread a line, as a comment, as the universe line, or
    at its arrow."""
    # one scan of the joined names; only a hit looks at them one by one
    joined = " ".join(names)
    if ARROW in joined or "#" in joined or "universe:" in joined.lower():
        for name in names:
            reason = _unrenderable_reason(name)
            if reason is not None:
                raise ImplicationSyntaxError(f"{source}: bad attribute name {name!r}: {reason}")
    try:
        return Universe(names=names)
    except ValueError as exc:
        raise ImplicationSyntaxError(f"{source}: {exc}") from exc


def parse_basis(text: str, universe: Universe | None = None) -> Basis:
    """Parse the text form produced by :func:`render_basis`.

    ``# kind:`` and ``# sigma0_len:`` comments are honoured, and either one
    given twice is refused with :class:`ImplicationSyntaxError`, and a
    non-zero ``# sigma0_len:`` under any kind but ``dbasis`` is refused with
    :class:`InvalidBasis`, as :class:`Basis` refuses it; other comments and
    blank lines are ignored.  A leading ``universe:`` line
    fixes the alphabet, and a ``# size: n`` comment fixes the unnamed
    universe of ``n`` positions; without either (and without an explicit
    ``universe`` argument) the alphabet is inferred from the tokens in order
    of first appearance, and every token is then treated as a name.
    Repeated names, more than ``MAX_UNIVERSE_SIZE`` of them, or a name that
    :func:`render_basis` would refuse, on the ``universe:`` line or
    inferred, are refused with :class:`ImplicationSyntaxError`.

    Two passes.  The first strips each line, routes the comments and the
    ``universe:`` line, and keeps every other line as it stands.  After the
    universe is known, the second pass splits each kept line once at its
    arrow and ORs each side straight into an int through one label-to-bit
    table; a side with a token the table lacks (a position such as
    ``007``, or an unknown name) resolves through :meth:`Universe.subset`
    instead, which refuses an unknown token.  A line whose split is not
    well formed (no arrow, a second arrow, or an empty lhs) goes to
    :func:`_split`, the one statement of that syntax, which raises its
    error; so every error is raised in line order.
    """
    kind: BasisKind | None = None
    sigma0_len: int | None = None
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            comment = line[1:].strip()
            key, _, value = comment.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if key == "kind" and value:
                if kind is not None:
                    raise ImplicationSyntaxError("repeated '# kind:' header")
                try:
                    kind = BasisKind(value.lower())
                except ValueError as exc:
                    raise ImplicationSyntaxError(f"unknown basis kind {value!r}") from exc
            elif key == "sigma0_len" and value:
                if sigma0_len is not None:
                    raise ImplicationSyntaxError("repeated '# sigma0_len:' header")
                if not _is_decimal(value):
                    raise ImplicationSyntaxError(f"bad sigma0_len {value!r}")
                sigma0_len = int(value)
            elif key == "size" and value:
                if not _is_decimal(value):
                    raise ImplicationSyntaxError(f"bad size {value!r}")
                try:
                    declared = Universe(size=int(value))
                except ValueError as exc:
                    raise ImplicationSyntaxError(f"bad size {value!r}") from exc
                universe = _declare(declared, universe)
            continue
        if line[0] in "uU" and line[:9].lower() == "universe:":
            names = line.partition(":")[2].split()
            if not names:
                raise ImplicationSyntaxError("empty universe line")
            universe = _declare(_named(names, "universe line"), universe)
            continue
        body.append(line)
    if universe is None:
        seen = dict.fromkeys(
            token for line in body for token in line.replace(ARROW, " ").split()
        )
        if not seen:
            raise ImplicationSyntaxError("cannot infer a universe from an empty basis")
        universe = _named(seen, "inferred universe")
    bit = {universe.label(i): 1 << i for i in range(universe.size)}
    pairs = []
    for line in body:
        head, sep, tail = line.partition(ARROW)
        lhs_tokens = head.split()
        if not (sep and lhs_tokens) or ARROW in tail:
            _split(line)  # raises the line's syntax error
        try:
            lhs = 0
            for token in lhs_tokens:
                lhs |= bit[token]
            rhs = 0
            for token in tail.split():
                rhs |= bit[token]
        except KeyError:
            lhs = universe.subset(lhs_tokens).bits
            rhs = universe.subset(tail.split()).bits
        pairs.append((lhs, rhs))
    return Basis._from_pairs(pairs, kind or BasisKind.RAW, sigma0_len or 0, universe=universe)


def read_basis(path: str | Path, universe: Universe | None = None) -> Basis:
    return parse_basis(Path(path).read_text(encoding="utf-8"), universe)
