"""Vocabulary layer: universes, bit-backed sets, implications, basis files."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EX51_IMP, aset, lectic_key, planes_of, random_standard_context
from implbase.bases import BUILDERS, check_equiv, direct_witness
from implbase.bench import ALGORITHMS, TABLE_COMBOS
from implbase.bits import lectic_keys, random_bits, transpose_bits
from implbase.closure import implies, oracle_closure
from implbase.errors import (
    EmptyLhs,
    ImplbaseError,
    ImplicationSyntaxError,
    InvalidBasis,
    UniverseMismatch,
    UnknownAttribute,
    UnrenderableName,
)
from implbase.sets import (
    ARROW,
    MAX_UNIVERSE_SIZE,
    AttributeSet,
    Basis,
    BasisKind,
    Implication,
    Universe,
    merge_same_lhs,
    parse_basis,
    parse_implication,
    read_basis,
    render_basis,
    unit_expand,
)
from implbase.sets import _declare, _is_decimal, _named, _split

U4 = Universe(names=["a", "b", "c", "d"])

#: Unicode digits that ``str.isdigit`` accepts: a superscript and an Arabic-Indic one.
NON_ASCII_DIGITS = ("\u00b2", "\u0661")


def imp(lhs: str, rhs: str, universe: Universe = U4) -> Implication:
    return Implication(aset(universe, lhs), aset(universe, rhs))


# -- universe -----------------------------------------------------------------


def test_universe_labels_and_resolve():
    u = Universe(names=["a", "b", "c"])
    assert u.size == 3
    assert u.mask == 0b111
    assert u.label(2) == "c"
    assert u.resolve("b") == 1
    assert u.resolve("2") == 2  # positions stay usable next to names
    anon = Universe(size=4)
    assert anon.label(3) == "3"
    assert anon.resolve("0") == 0


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe(size=0)
    with pytest.raises(ValueError):
        Universe(size=MAX_UNIVERSE_SIZE + 1)
    with pytest.raises(ValueError):
        Universe(names=["x", "x"])
    with pytest.raises(ValueError):
        Universe(size=2, names=["x"])
    with pytest.raises(ValueError):
        Universe()
    assert Universe(size=MAX_UNIVERSE_SIZE).size == MAX_UNIVERSE_SIZE


class RefusingNames(tuple):
    """Attribute names that fail any comparison."""

    def __eq__(self, other):
        raise AssertionError("names compared")

    __hash__ = tuple.__hash__


def test_universe_equality_and_its_identity_fast_path():
    u = Universe(names=["a", "b"])
    twin = Universe(names=["a", "b"])
    assert u is not twin
    assert u == twin and not u != twin and hash(u) == hash(twin)
    assert Universe(size=3) == Universe(size=3)
    assert hash(Universe(size=3)) == hash(Universe(size=3))
    assert u != Universe(names=["a", "c"]) and u != Universe(size=2)
    assert u != "a b" and u.__eq__("a b") is NotImplemented
    # the same object equals itself without reading a field
    u.names = RefusingNames(u.names)
    assert u == u and not u != u
    with pytest.raises(AssertionError, match="names compared"):
        u.__eq__(twin)


def test_unknown_attribute():
    u = Universe(names=["a", "b"])
    with pytest.raises(UnknownAttribute):
        u.resolve("z")
    with pytest.raises(UnknownAttribute):
        u.resolve("7")
    for token in NON_ASCII_DIGITS:  # positions are ASCII digits only
        with pytest.raises(UnknownAttribute):
            u.resolve(token)
        with pytest.raises(UnknownAttribute):
            Universe(size=3).resolve(token)
    with pytest.raises(UnknownAttribute):
        u.subset([5])


# -- attribute sets ------------------------------------------------------------


def test_set_algebra_matches_python_sets():
    # the algebra itself is done on ``bits``; a set keeps the container
    # protocols over them
    rng = random.Random(20817)
    universes = {n: Universe(size=n) for n in range(1, 25)}
    for _ in range(10_000):
        n = rng.randint(1, 24)
        u = universes[n]
        xa = rng.getrandbits(n)
        a = AttributeSet(u, xa)
        sa = {i for i in range(n) if xa >> i & 1}
        assert set(a) == sa
        assert list(a) == sorted(sa)
        assert len(a) == len(sa)
        assert all((i in a) == (i in sa) for i in range(-1, n + 2))
        assert bool(a) == bool(sa)


def test_out_of_range_bits_are_refused():
    # the error names the lowest position at or above the universe size
    for size in (1, 3, 24, 40):
        u = Universe(size=size)
        assert AttributeSet(u, (1 << size) - 1).bits == u.mask
        for bits, index in (
            (1 << size, size),
            (1 << 40, 40),
            (-1, size),
            ((1 << size) - 1 | 1 << size + 5 | 1 << size + 2, size + 2),
        ):
            with pytest.raises(UnknownAttribute) as err:
                AttributeSet(u, bits)
            assert str(err.value) == f"attribute index {index} out of range"


def test_labels_and_str(ex51):
    x = aset(ex51.universe, "b d")
    assert x.labels() == ("b", "d")
    assert str(x) == "b d"
    assert str(AttributeSet(ex51.universe, 0)) == ""


# -- lectic order ---------------------------------------------------------------


def test_lectic_order_example():
    # bc before ad before ab: the earliest differing attribute decides
    sets = [aset(U4, "a b"), aset(U4, "a d"), aset(U4, "b c")]
    keys = dict(zip(sets, lectic_keys([s.bits for s in sets], 4)))
    ordered = sorted(sets, key=keys.__getitem__)
    assert [str(s) for s in ordered] == ["b c", "a d", "a b"]


@given(st.integers(0, (1 << 10) - 1), st.integers(0, (1 << 10) - 1))
def test_lectic_key_realises_min_rule(xa, xb):
    n = 10
    ka, kb = lectic_keys([xa, xb], n)
    if xa == xb:
        assert ka == kb
        return
    low = (xa ^ xb) & -(xa ^ xb)
    expected_smaller = xa if xb & low else xb
    smaller = xa if ka < kb else xb
    assert smaller == expected_smaller


def test_lectic_key_is_injective():
    n = 8
    keys = set(lectic_keys(list(range(1 << n)), n))
    assert len(keys) == 1 << n


@given(st.data())
def test_lectic_key_mirrors_the_bit_string(data):
    # the string reference at every universe width; a key packed in a
    # machine word is shifted past the padding of its word
    size = data.draw(st.integers(1, MAX_UNIVERSE_SIZE))
    bits = data.draw(st.integers(0, (1 << size) - 1))
    width = next((w for w in (8, 16, 32, 64) if size <= w), size)
    assert list(lectic_keys([bits], size)) == [lectic_key(bits, size) << (width - size)]


# -- implications ---------------------------------------------------------------


def test_implication_requires_nonempty_lhs():
    with pytest.raises(EmptyLhs):
        Implication(AttributeSet(U4, 0), aset(U4, "a"))


def test_implication_requires_shared_universe():
    other = Universe(names=["a", "b", "c", "d", "e"])
    with pytest.raises(UniverseMismatch):
        Implication(aset(U4, "a"), aset(other, "b"))


def test_parse_and_format_implication_round_trip():
    for text in ["a -> b", "b c -> a d", "a ->", "d -> a b c"]:
        impl = parse_implication(text, U4)
        assert str(impl) == text
        again = parse_implication(str(impl), U4)
        assert again == impl


def test_parse_implication_errors():
    with pytest.raises(ImplicationSyntaxError):
        parse_implication("a b c", U4)
    with pytest.raises(ImplicationSyntaxError):
        parse_implication("a -> b -> c", U4)
    with pytest.raises(EmptyLhs):
        parse_implication(" -> b", U4)
    with pytest.raises(UnknownAttribute):
        parse_implication("a -> z", U4)


# -- basis structure -------------------------------------------------------------


def test_empty_basis_needs_universe():
    with pytest.raises(ValueError):
        Basis([])
    assert len(Basis([], universe=U4)) == 0


def test_basis_rejects_foreign_implications():
    other = Universe(names=["a", "b", "c", "d", "e"])
    with pytest.raises(UniverseMismatch):
        Basis([imp("a", "b"), imp("a", "b", other)], universe=U4)


def test_cdub_and_dg_reject_duplicate_lhs():
    impls = [imp("a", "b"), imp("a", "c")]
    for kind in (BasisKind.CDUB, BasisKind.DG):
        with pytest.raises(InvalidBasis):
            Basis(impls, kind=kind)
    assert len(Basis(impls, kind=BasisKind.RAW)) == 2


def test_dbasis_prefix_and_tail_shape():
    good = Basis(
        [imp("d", "c"), imp("b c", "a d")], kind=BasisKind.DBASIS, sigma0_len=1
    )
    assert good.sigma0_len == 1
    with pytest.raises(InvalidBasis):
        Basis([imp("b c", "a")], kind=BasisKind.DBASIS, sigma0_len=1)
    with pytest.raises(InvalidBasis):
        Basis([imp("d", "c"), imp("a", "b")], kind=BasisKind.DBASIS, sigma0_len=1)
    with pytest.raises(InvalidBasis):
        Basis([imp("d", "c")], kind=BasisKind.DBASIS, sigma0_len=2)
    with pytest.raises(InvalidBasis):
        Basis([imp("d", "c")], kind=BasisKind.RAW, sigma0_len=1)


def test_basis_derived_structures():
    basis = Basis([imp("b d", "a"), imp("d", "c")], universe=U4)
    assert basis.pairs() == ((0b1010, 0b0001), (0b1000, 0b0100))
    assert basis.attr_lists() == ((), (0,), (), (0, 1))
    assert basis.attr_masks() == (0, 0b01, 0, 0b11)
    assert tuple(column >> 2 for column in basis.joint_masks()) == (0b01, 0, 0b10, 0)
    assert basis.lhs_planes() == (0b10, 0b01)
    empty = Basis([], universe=U4)
    assert empty.attr_lists() == ((),) * 4
    assert empty.attr_masks() == (0,) * 4
    assert empty.joint_masks() == (0,) * 4
    assert empty.lhs_planes() == ()


def scalar_indexes(basis: Basis) -> tuple[tuple, tuple, tuple]:
    """Occurrence lists, lhs masks and lhs size planes, one attribute and
    one implication at a time."""
    pairs = basis.pairs()
    lists = tuple(
        tuple(i for i, (lhs, _) in enumerate(pairs) if lhs >> a & 1)
        for a in range(basis.universe.size)
    )
    masks = tuple(sum(1 << i for i in found) for found in lists)
    planes = planes_of([bin(lhs).count("1") for lhs, _ in pairs])
    return lists, masks, planes


@pytest.mark.parametrize("order", ["lists first", "masks first", "masks only"])
@pytest.mark.parametrize(
    "size, count", [(6, 40), (30, 10), (30, 40), (5, 0)], ids=lambda v: str(v)
)
def test_indexes_match_the_scalar_scan_in_any_order(order, size, count):
    rng = random.Random(size * 100 + count)
    u = Universe(size=size)
    pairs = [(rng.randrange(1, 1 << size), rng.getrandbits(size)) for _ in range(count)]
    basis = Basis._from_pairs(pairs, BasisKind.RAW, universe=u)
    lists, masks, planes = scalar_indexes(basis)
    if order == "lists first":
        assert basis.attr_lists() == lists
    assert basis.attr_masks() == masks
    assert basis.lhs_planes() == planes
    if order == "masks first":
        assert basis.attr_lists() == lists
    if order == "masks only":
        assert "attr_lists" not in basis._cache
    assert basis.attr_masks() is basis.attr_masks()


@settings(max_examples=200, deadline=None)
@given(
    size=st.sampled_from([1, 3, 24, 64, 65, 130]),
    count=st.sampled_from([0, 1, 7, 64, 65, 140]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lhs_planes_decode_to_the_lhs_sizes(size, count, seed):
    # the empty basis, more than 64 implications and universes past 64
    # attributes; sparse and dense left-hand sides, so sizes need from one
    # to eight planes
    rng = random.Random(seed)
    u = Universe(size=size)
    p = rng.choice([0.05, 0.5, 0.95])
    pairs = [(random_bits(rng, size, p) or 1 << rng.randrange(size), 0) for _ in range(count)]
    basis = Basis._from_pairs(pairs, BasisKind.RAW, universe=u)
    planes = basis.lhs_planes()
    assert type(planes) is tuple and basis.lhs_planes() is planes
    assert not planes or planes[-1]
    for i, (lhs, _) in enumerate(pairs):
        assert sum((plane >> i & 1) << j for j, plane in enumerate(planes)) == lhs.bit_count()
    assert not any(plane >> count for plane in planes)


@pytest.mark.parametrize(
    "size, count",
    [(1, 3), (9, 64), (24, 65), (64, 64), (64, 130), (65, 0), (65, 64), (130, 65), (200, 130)],
    ids=lambda v: str(v),
)
def test_rhs_masks_hold_each_implication_under_its_rhs_attributes(size, count):
    # widths on both sides of 64 attributes, with at most 64 implications
    # and more, so every transpose path builds the columns; the rhs columns
    # are the high half of joint_masks(), above the m lhs bits
    rng = random.Random(size * 1000 + count)
    u = Universe(size=size)
    pairs = [(rng.randrange(1, 1 << size), rng.getrandbits(size)) for _ in range(count)]
    basis = Basis._from_pairs(pairs, BasisKind.RAW, universe=u)
    columns = tuple(column >> count for column in basis.joint_masks())
    assert len(columns) == size
    for b, column in enumerate(columns):
        assert column == sum(1 << j for j, (_, rhs) in enumerate(pairs) if rhs >> b & 1)
    assert Basis._from_pairs([], BasisKind.RAW, universe=u).joint_masks() == (0,) * size


@settings(max_examples=150, deadline=None)
@given(
    size=st.one_of(st.integers(1, 200), st.sampled_from([1, 24, 64, 65, 200])),
    count=st.one_of(st.integers(0, 130), st.sampled_from([0, 31, 32, 33, 63, 64, 65, 130])),
    seed=st.integers(0, 2**32 - 1),
)
def test_joint_masks_are_the_lhs_columns_below_the_rhs_columns(size, count, seed):
    # 2m sides cross the 64-set boundary of the transpose at 32 and 33
    # implications, the lhs and rhs columns on their own at 64 and 65
    rng = random.Random(seed)
    u = Universe(size=size)
    pairs = [(rng.randrange(1, 1 << size), rng.getrandbits(size)) for _ in range(count)]
    basis = Basis._from_pairs(pairs, BasisKind.RAW, universe=u)
    lhs, rhs = (
        tuple(sum(1 << i for i, p in enumerate(pairs) if p[side] >> a & 1) for a in range(size))
        for side in (0, 1)
    )
    transposes = []

    def counted(sides: list[int], n: int) -> list[int]:
        transposes.append(len(sides))
        return transpose_bits(sides, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("implbase.sets.transpose_bits", counted)
        lhs_half = basis.attr_masks()
        joint = basis.joint_masks()
    assert transposes == [2 * count]  # one transpose builds both halves
    assert type(joint) is tuple and len(joint) == size
    assert joint == tuple(low | high << count for low, high in zip(lhs, rhs))
    assert lhs_half == lhs and tuple(column >> count for column in joint) == rhs
    assert basis.joint_masks() is joint and basis.attr_masks() is lhs_half
    assert Basis._from_pairs([], BasisKind.RAW, universe=u).joint_masks() == (0,) * size


def test_the_check_path_builds_no_occurrence_lists(ex51):
    for ctx in (ex51, random_standard_context(random.Random(31), 9)):
        bases = [build(ctx) for build in BUILDERS.values()]
        for basis in bases:
            for other in bases:
                check_equiv(basis, other)
            direct_witness(basis)
        # the entailments transpose only the lanes left to show, so no
        # column memo of a basis is read
        for basis in bases:
            assert "attr_masks" not in basis._cache
            assert "attr_lists" not in basis._cache


def test_binary_reach_follows_prefix_chains():
    basis = Basis(
        [imp("a", "b"), imp("b", "c"), imp("c d", "a")],
        kind=BasisKind.DBASIS,
        sigma0_len=2,
    )
    reach = basis.binary_reach()
    assert reach[0] == 0b0111  # a reaches b, then c
    assert reach[1] == 0b0110
    assert reach[2] == 0b0100  # tail implications do not count
    assert reach[3] == 0b1000


# -- merging and unit expansion ----------------------------------------------------


def test_merge_same_lhs_example():
    basis = Basis([imp("a", "b"), imp("a", "c"), imp("b", "a")])
    merged = merge_same_lhs(basis)
    assert [str(i) for i in merged] == ["a -> b c", "b -> a"]


def test_merge_keeps_dbasis_prefix_boundary():
    basis = Basis(
        [imp("d", "a"), imp("d", "c"), imp("b c", "a"), imp("b c", "d")],
        kind=BasisKind.DBASIS,
        sigma0_len=2,
    )
    merged = merge_same_lhs(basis)
    assert merged.sigma0_len == 1
    assert [str(i) for i in merged] == ["d -> a c", "b c -> a d"]


def test_merge_preserves_closures():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 8)
        u = Universe(size=n)
        impls = []
        for _ in range(rng.randint(1, 12)):
            lhs = 0
            while not lhs:
                lhs = rng.getrandbits(n)
            impls.append(
                Implication(AttributeSet(u, lhs), AttributeSet(u, rng.getrandbits(n)))
            )
        basis = Basis(impls, universe=u)
        merged = merge_same_lhs(basis)
        assert len(merged) <= len(basis)
        for _ in range(20):
            x = AttributeSet(u, rng.getrandbits(n))
            assert oracle_closure(x, merged) == oracle_closure(x, basis)


def test_unit_expand_drops_reflexive_units():
    basis = Basis([imp("b d", "a"), imp("a", "a b")], universe=U4)
    assert unit_expand(basis) == {(0b1010, 0), (0b0001, 1)}


# -- text format --------------------------------------------------------------------


def test_render_parse_round_trip_for_each_kind():
    raw = Basis([imp("a", "b"), imp("b c", "a d")])
    cdub = Basis([imp("b d", "a"), imp("d", "c")], kind=BasisKind.CDUB)
    dbasis = Basis(
        [imp("d", "c"), imp("b c", "a d")], kind=BasisKind.DBASIS, sigma0_len=1
    )
    dg = Basis([imp("d", "c")], kind=BasisKind.DG)
    for basis in (raw, cdub, dbasis, dg):
        again = parse_basis(render_basis(basis))
        assert again == basis


def test_render_refuses_names_the_text_form_cannot_hold():
    for bad in ("has wings", "x->y", "#tag", "", "tab\there", "Universe:x"):
        u = Universe(names=["a", bad, "c"])
        basis = Basis([Implication(u.subset([0]), u.subset([1]))], universe=u)
        with pytest.raises(UnrenderableName):
            render_basis(basis)


def _basis_over(names: list[str], draw) -> Basis:
    u = Universe(names=names)
    full = u.mask
    impls = [
        Implication(
            AttributeSet(u, draw(st.integers(1, full))),
            AttributeSet(u, draw(st.integers(0, full))),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return Basis(impls, universe=u)


@given(st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True), st.data())
def test_render_round_trips_or_refuses_any_names(names, data):
    basis = _basis_over(names, data.draw)
    try:
        text = render_basis(basis)
    except UnrenderableName:
        return
    assert parse_basis(text) == basis


@given(
    st.lists(
        st.text(alphabet="ab#:->_xy", min_size=1, max_size=4).filter(
            lambda name: "->" not in name and not name.startswith("#")
        ),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    st.data(),
)
def test_render_keeps_names_the_text_form_can_hold(names, data):
    basis = _basis_over(names, data.draw)
    assert parse_basis(render_basis(basis)) == basis


@given(st.integers(1, 12), st.data())
def test_render_round_trips_an_unnamed_universe(size, data):
    u = Universe(size=size)
    impls = [
        Implication(
            AttributeSet(u, data.draw(st.integers(1, u.mask))),
            AttributeSet(u, data.draw(st.integers(0, u.mask))),
        )
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    units = [impl for impl in impls if len(impl.lhs) == 1]
    wide = [impl for impl in impls if len(impl.lhs) > 1]
    bases = [
        Basis(impls, universe=u),
        Basis(units + wide, kind=BasisKind.DBASIS, sigma0_len=len(units), universe=u),
    ]
    if len({impl.lhs.bits for impl in impls}) == len(impls):
        bases += [Basis(impls, kind=kind, universe=u) for kind in (BasisKind.CDUB, BasisKind.DG)]
    for basis in bases:
        assert parse_basis(render_basis(basis)) == basis


def test_unnamed_universe_is_written_as_its_size():
    u = Universe(size=3)
    text = render_basis(Basis([Implication(u.subset([0]), u.subset([1, 2]))], universe=u))
    assert text == "# kind: raw\n# size: 3\n0 -> 1 2\n"
    assert parse_basis(text, universe=u).universe == u
    with pytest.raises(UniverseMismatch):
        parse_basis(text, universe=Universe(size=4))


def test_parse_basis_headers_and_universe_line():
    text = "# kind: dbasis\n# sigma0_len: 1\nuniverse: a b c d\nd -> c\nb c -> a d\n"
    basis = parse_basis(text)
    assert basis.kind is BasisKind.DBASIS
    assert basis.sigma0_len == 1
    assert basis.universe == U4
    same = parse_basis(text, universe=U4)
    assert same == basis
    with pytest.raises(UniverseMismatch):
        parse_basis(text, universe=Universe(names=["a", "b", "c", "e"]))


def test_parse_basis_infers_universe_in_first_appearance_order():
    basis = parse_basis("c -> a\nb -> c\n")
    assert basis.universe.names == ("c", "a", "b")
    assert str(basis.implications[0].lhs) == "c"


def test_parse_basis_errors():
    with pytest.raises(ImplicationSyntaxError):
        parse_basis("# kind: fancy\nuniverse: a b\na -> b\n")
    for count in ("soon", *NON_ASCII_DIGITS):
        with pytest.raises(ImplicationSyntaxError):
            parse_basis(f"# sigma0_len: {count}\nuniverse: a b\na -> b\n")
    with pytest.raises(ImplicationSyntaxError):
        parse_basis("universe:\na -> b\n")
    for size in ("zero", "0", str(MAX_UNIVERSE_SIZE + 1), *NON_ASCII_DIGITS):
        with pytest.raises(ImplicationSyntaxError):
            parse_basis(f"# size: {size}\n0 -> 1\n")
    with pytest.raises(ImplicationSyntaxError):
        parse_basis("")
    # a repeated header would let the last one win silently
    with pytest.raises(ImplicationSyntaxError, match="repeated '# kind:' header"):
        parse_basis("# kind: dbasis\n# kind: dg\nuniverse: a b\na b -> b\n")
    with pytest.raises(ImplicationSyntaxError, match="repeated '# sigma0_len:' header"):
        parse_basis("# kind: dbasis\n# sigma0_len: 0\n# sigma0_len: 1\nuniverse: a b\na -> b\n")


def test_parse_basis_refuses_sigma0_for_other_kinds():
    # a prefix length under any kind but dbasis is the Basis refusal, with
    # or without a kind header; a zero length states no prefix
    for header in ("# kind: raw\n", "# kind: cdub\n", "# kind: dg\n", ""):
        with pytest.raises(InvalidBasis, match="sigma0_len is only meaningful for a dbasis"):
            parse_basis(f"{header}# sigma0_len: 3\nuniverse: a b c\na -> b\nb -> c\n")
        assert parse_basis(f"{header}# sigma0_len: 0\nuniverse: a b\na -> b\n").sigma0_len == 0


WIDE = " ".join(f"x{i}" for i in range(MAX_UNIVERSE_SIZE + 1))


@pytest.mark.parametrize(
    "text",
    [
        "universe: a b a\na -> b\n",
        f"universe: {WIDE}\nx0 -> x1\n",
        f"{WIDE} -> y\n",
        "universe: #a b c\n#a -> b\n",
        "universe: a -> b\na -> b\n",
        "a -> #b\n",
    ],
    ids=[
        "repeated-names",
        "wide-universe-line",
        "wide-inferred-universe",
        "comment-name",
        "arrow-name",
        "inferred-comment-name",
    ],
)
def test_parse_basis_refuses_a_universe_it_cannot_build(text):
    with pytest.raises(ImplicationSyntaxError, match="universe"):
        parse_basis(text)


def test_parse_basis_names_the_name_it_refuses_and_why():
    # read as a comment, the line "#a -> b" would be dropped without an error
    with pytest.raises(ImplicationSyntaxError, match="'#a': a line starting with it"):
        parse_basis("universe: #a b c\n#a -> b\n")
    with pytest.raises(ImplicationSyntaxError, match="'->': it contains"):
        parse_basis("universe: a -> b\na -> b\n")


def test_parse_basis_reads_a_name_with_a_hash_inside():
    for text in ("universe: a b#c\na -> b#c\n", "a -> b#c\n"):
        basis = parse_basis(text)
        assert basis.universe.names == ("a", "b#c")
        assert basis.pairs() == ((0b01, 0b10),)


def test_basis_file_round_trip(tmp_path):
    basis = Basis(
        [imp("d", "c"), imp("b c", "a d"), imp("a d", "b")],
        kind=BasisKind.DBASIS,
        sigma0_len=1,
    )
    target = tmp_path / "basis.imp"
    target.write_text(render_basis(basis), encoding="utf-8")
    assert read_basis(target) == basis
    assert read_basis(target, universe=U4) == basis


def test_ex51_fixture_is_canonical():
    text = EX51_IMP.read_text(encoding="utf-8")
    basis = parse_basis(text)
    assert basis.kind is BasisKind.DBASIS
    assert basis.sigma0_len == 1
    assert len(basis) == 4
    assert render_basis(basis) == text


# -- raw pairs, the stored form ----------------------------------------------------


def outcome(make):
    """What ``make()`` gives: its value, or the class and message it raises."""
    try:
        return make()
    except (ImplbaseError, ValueError) as exc:
        return type(exc), str(exc)


def objects_basis(pairs, kind, sigma0_len, universe) -> Basis:
    """The pairs as implication objects through the public constructor."""
    impls = [
        Implication(AttributeSet(universe, lhs), AttributeSet(universe, rhs))
        for lhs, rhs in pairs
    ]
    return Basis(impls, kind, sigma0_len, universe)


def reference_parse_basis(text: str, universe: Universe | None = None) -> Basis:
    """The per-line parse: every line through :func:`parse_implication`, the
    objects through the public constructor, the universe inferred by a scan
    of a list."""
    kind = BasisKind.RAW
    sigma0_len = 0
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(":")
            key = key.strip().lower()
            value = value.strip()
            decimal = value.isascii() and value.isdigit()
            if key == "kind" and value:
                try:
                    kind = BasisKind(value.lower())
                except ValueError as exc:
                    raise ImplicationSyntaxError(f"unknown basis kind {value!r}") from exc
            elif key == "sigma0_len" and value:
                if not decimal:
                    raise ImplicationSyntaxError(f"bad sigma0_len {value!r}")
                sigma0_len = int(value)
            elif key == "size" and value:
                if not decimal:
                    raise ImplicationSyntaxError(f"bad size {value!r}")
                try:
                    declared = Universe(size=int(value))
                except ValueError as exc:
                    raise ImplicationSyntaxError(f"bad size {value!r}") from exc
                if universe is not None and universe != declared:
                    raise UniverseMismatch("declared universe differs from the expected one")
                universe = declared
            continue
        if line.lower().startswith("universe:"):
            names = line.partition(":")[2].split()
            if not names:
                raise ImplicationSyntaxError("empty universe line")
            declared = Universe(names=names)
            if universe is not None and universe != declared:
                raise UniverseMismatch("declared universe differs from the expected one")
            universe = declared
            continue
        body.append(line)
    if universe is None:
        seen: list[str] = []
        for line in body:
            for token in line.replace("->", " ").split():
                if token not in seen:
                    seen.append(token)
        if not seen:
            raise ImplicationSyntaxError("cannot infer a universe from an empty basis")
        universe = Universe(names=seen)
    impls = [parse_implication(line, universe) for line in body]
    return Basis(impls, kind=kind, sigma0_len=sigma0_len, universe=universe)


#: Tokens no universe drawn below resolves.
UNKNOWN = ("9", "007", "zz")


@st.composite
def basis_texts(draw) -> tuple[str, Universe | None]:
    """A ``.imp`` text with a named, unnamed or inferred universe, plus the
    universe argument to parse it with; one in four is drawn broken, with
    a bad header, an unknown token, an empty lhs or a line without one arrow."""
    broken = draw(st.integers(0, 3)) == 0
    form = draw(st.sampled_from(["named", "size", "inferred"]))
    names = draw(st.lists(st.sampled_from("abcde1"), min_size=1, unique=True))
    size = draw(st.integers(1, 8))
    lines = []
    kind = draw(st.sampled_from(["raw", "cdub", "dbasis", "DBasis", "dg", None, "fancy"][: 6 + broken]))
    if kind is not None:
        lines.append(f"# kind: {kind}")
    if draw(st.booleans()):
        lines.append(f"# sigma0_len: {draw(st.sampled_from('0123x'[: 4 + broken]))}")
    if form == "named":
        lines.append("universe: " + " ".join(names))
    elif form == "size":
        lines.append(f"# size: {size}")
    labels = [str(i) for i in range(size)] if form == "size" else names
    decimals = [f"00{j}" for j in range(len(labels))]  # non-canonical positions
    token = st.sampled_from(labels * 4 + decimals + list(UNKNOWN * broken))
    lhs = st.lists(token, min_size=1 - broken, max_size=3).map(" ".join)
    rhs = st.lists(token, max_size=3).map(" ".join)
    lines += draw(st.lists(st.builds(lambda a, b: f"{a} -> {b}", lhs, rhs), max_size=6))
    if broken:
        bad = draw(st.sampled_from(["a b", "a -> b -> c", " -> a", "# note -> a", ""]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    declared = Universe(size=size) if form == "size" else Universe(names=names)
    universe = draw(st.sampled_from([None, None, declared, Universe(names="ab")]))
    return "\n".join(lines) + "\n", universe


@settings(max_examples=400, deadline=None)
@given(basis_texts())
@example(("# kind: dbasis\n# sigma0_len: 2\n# size: 8\n007 -> 0\n3 ->\n00 01 -> 2\n", None))
def test_parse_basis_agrees_with_the_per_line_parse(case):
    text, universe = case
    got = outcome(lambda: parse_basis(text, universe))
    want = outcome(lambda: reference_parse_basis(text, universe))
    assert got == want
    if isinstance(want, Basis):
        assert got.pairs() == want.pairs()
        assert got.implications == want.implications
        assert outcome(lambda: render_basis(got)) == outcome(lambda: render_basis(want))


def two_loop_parse_basis(text: str, universe: Universe | None = None) -> Basis:
    """The two-loop parse kept as the reference: the first loop routes
    comments and the ``universe:`` line, refuses a repeated header and
    keeps each body line whole, the second splits each line through
    ``_split``."""
    kind = BasisKind.RAW
    sigma0_len = 0
    headers: set[str] = set()
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            key, _, value = comment.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if key in ("kind", "sigma0_len") and value:
                if key in headers:
                    raise ImplicationSyntaxError(f"repeated '# {key}:' header")
                headers.add(key)
            if key == "kind" and value:
                try:
                    kind = BasisKind(value.lower())
                except ValueError as exc:
                    raise ImplicationSyntaxError(f"unknown basis kind {value!r}") from exc
            elif key == "sigma0_len" and value:
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
        if line.lower().startswith("universe:"):
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
        lhs_tokens, rhs_tokens = _split(line)
        try:
            lhs = rhs = 0
            for token in lhs_tokens:
                lhs |= bit[token]
            for token in rhs_tokens:
                rhs |= bit[token]
        except KeyError:
            lhs = universe.subset(lhs_tokens).bits
            rhs = universe.subset(rhs_tokens).bits
        pairs.append((lhs, rhs))
    return Basis._from_pairs(pairs, kind, sigma0_len, universe=universe)


#: The lines a ``.imp`` text may hold besides implications, in any order:
#: blanks, comments (some holding an arrow), headers and ``universe:`` lines
#: in either case; then the headers and universe lines it refuses.
OTHER_LINES = (
    "",
    "   ",
    "# note",
    "# a -> b",
    "#->",
    "# kind: cdub",
    "# kind: dbasis",
    "# KIND: DG",
    "# sigma0_len: 1",
    "# sigma0_len: 2",
    "# size: 4",
    "universe: a b c d",
    "UNIVERSE: a b c d",
)
BAD_LINES = (
    "# kind: fancy",
    "# sigma0_len: x",
    "# size: 0",
    "# size: x",
    "Universe: a b",
    "universe:",
)


@st.composite
def mixed_basis_texts(draw) -> tuple[str, Universe | None]:
    """Body lines mixed with :data:`OTHER_LINES` in any order, one text in
    four with one of :data:`BAD_LINES` put in; the body with spaced, glued
    and doubled arrows, no arrow, empty sides, unknown tokens and decimal
    positions.  Returned with the universe argument to parse the text with."""
    token = st.sampled_from(["a", "b", "c", "d", "0", "3", "007", "zz", "e"])
    rhs = st.lists(token, max_size=3).map(" ".join)
    lhs = st.one_of(rhs.filter(bool), rhs.filter(bool), rhs.filter(bool), st.just(""))
    arrow = st.sampled_from([" -> "] * 6 + ["->", " ->", "-> ", " -> -> ", "->->", " "])
    body = st.builds(lambda a, sep, b: f"{a}{sep}{b}", lhs, arrow, rhs)
    lines = draw(st.lists(st.one_of(body, body, st.sampled_from(OTHER_LINES)), max_size=8))
    if draw(st.integers(0, 3)) == 3:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    universe = draw(st.sampled_from([None, None, U4, Universe(size=4)]))
    return "\n".join(lines) + "\n", universe


@settings(max_examples=500, deadline=None)
@given(mixed_basis_texts())
@example(("universe: a b c d\na b\n", None))
@example(("universe: a b c d\na -> b -> c\n", None))
@example(("universe: a b c d\n -> a\n", None))
@example(("a->b\nb ->c\n# c -> d\nUNIVERSE: a b c d\n", None))
@example(("# size: 8\n007 -> 0\nzz -> 1\n", None))
def test_parse_basis_agrees_with_the_two_loop_parse(case):
    text, universe = case
    got = outcome(lambda: parse_basis(text, universe))
    want = outcome(lambda: two_loop_parse_basis(text, universe))
    assert got == want
    if isinstance(want, Basis):
        assert got.pairs() == want.pairs()


def test_parse_basis_reads_non_canonical_positions():
    basis = parse_basis("# size: 8\n007 -> 00 1\n")
    assert basis.pairs() == ((1 << 7, 0b11),)
    assert render_basis(basis) == "# kind: raw\n# size: 8\n7 -> 0 1\n"
    assert parse_basis("universe: a b\n01 -> a\n").pairs() == ((0b10, 0b01),)
    with pytest.raises(UnknownAttribute, match="unknown attribute '8'"):
        parse_basis("# size: 8\n0 -> 8\n")


#: Right-hand side texts that lines share: names, spacing, a position, an
#: unknown token and the empty text.
RHS_TEXTS = (" b c", " b c", "  b   c ", " 003 a", " zz", " d zz", "", " a")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c d", "zz", "00"]), st.sampled_from(RHS_TEXTS)),
        max_size=12,
    ),
    st.sampled_from([None, U4]),
)
@example([("a", " b c"), ("c d", " b c"), ("b", " b c")], None)
@example([("a", " b c"), ("zz", " b c")], U4)
def test_repeated_rhs_texts_parse_as_the_per_line_parse(lines, universe):
    text = "universe: a b c d\n" + "".join(f"{lhs} ->{rhs}\n" for lhs, rhs in lines)
    got = outcome(lambda: parse_basis(text, universe))
    want = outcome(lambda: reference_parse_basis(text, universe))
    assert got == want
    if isinstance(want, Basis):
        assert got.pairs() == want.pairs()


def test_an_unknown_token_in_a_repeated_rhs_is_named():
    # the first line with the text refuses it, so no line reuses its bits
    text = "universe: a b c d\na -> b c\nb -> c zz\nc -> b c\nd -> c zz\n"
    with pytest.raises(UnknownAttribute, match="unknown attribute 'zz'"):
        parse_basis(text)
    # a reused rhs still lets an unknown lhs token be named
    with pytest.raises(UnknownAttribute, match="unknown attribute 'yy'"):
        parse_basis("universe: a b c d\na -> b c\nyy -> b c\n")


@st.composite
def raw_pairs(draw) -> tuple[list[tuple[int, int]], BasisKind, int, Universe]:
    """Pairs over a small unnamed universe, drawn to hit every structural
    rule: repeated, empty, unit and wider left-hand sides, every kind, and
    ``sigma0_len`` at, inside and outside its range."""
    u = Universe(size=draw(st.integers(1, 5)))
    pool = draw(st.lists(st.integers(1, u.mask), min_size=1, max_size=4))
    if draw(st.integers(0, 4)) == 0:
        pool.append(0)
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, u.mask)), max_size=7))
    kind = draw(st.sampled_from(list(BasisKind)))
    if kind is not BasisKind.DBASIS:
        sigma0_len = draw(st.sampled_from([0, 0, 0, 1]))
    elif draw(st.booleans()):
        pairs.sort(key=lambda pair: pair[0].bit_count() != 1)
        units = sum(lhs.bit_count() == 1 for lhs, _ in pairs)
        sigma0_len = units + draw(st.integers(-1, 1))
    else:
        sigma0_len = draw(st.integers(-1, len(pairs) + 1))
    return pairs, kind, sigma0_len, u


@settings(max_examples=400, deadline=None)
@given(raw_pairs())
def test_pairs_constructor_checks_as_the_public_one(case):
    pairs, kind, sigma0_len, u = case
    got = outcome(lambda: Basis._from_pairs(pairs, kind, sigma0_len, universe=u))
    want = outcome(lambda: objects_basis(pairs, kind, sigma0_len, u))
    assert got == want
    if isinstance(want, Basis):
        assert got.pairs() == want.pairs() == tuple(pairs)
        assert got.implications == want.implications


def test_pairs_constructor_refuses_bits_outside_the_universe():
    u = Universe(size=3)
    for pairs, index in (
        ([(0b1000, 1)], 3),
        ([(1, 1), (1, 0b110000)], 4),
        ([(0, 0b1000)], 3),  # the range is checked before the empty lhs
        ([(-1, 1)], 3),
    ):
        with pytest.raises(UnknownAttribute) as err:
            Basis._from_pairs(pairs, BasisKind.RAW, universe=u)
        assert str(err.value) == f"attribute index {index} out of range"
    with pytest.raises(UnknownAttribute, match="attribute index 3 out of range"):
        u.subset([3])


def test_bases_of_equal_pairs_differ_by_universe_and_kind():
    make = Basis._from_pairs
    base = make([(1, 2)], BasisKind.RAW, universe=Universe(size=2))
    assert base == make(((1, 2),), BasisKind.RAW, universe=Universe(size=2))
    assert hash(base) == hash(make([(1, 2)], BasisKind.RAW, universe=Universe(size=2)))
    assert base != make([(1, 2)], BasisKind.RAW, universe=Universe(size=3))
    assert base != make([(1, 2)], BasisKind.RAW, universe=Universe(names="ab"))
    assert base != make([(1, 2)], BasisKind.CDUB, universe=Universe(size=2))


def reference_merge_same_lhs(basis: Basis) -> Basis:
    """:func:`merge_same_lhs` on implication objects."""

    def merged(impls):
        rhs: dict[AttributeSet, AttributeSet] = {}
        for impl in impls:
            bits = rhs[impl.lhs].bits if impl.lhs in rhs else 0
            rhs[impl.lhs] = AttributeSet(impl.universe, bits | impl.rhs.bits)
        return [Implication(lhs, more) for lhs, more in rhs.items()]

    impls = basis.implications
    if basis.kind is BasisKind.DBASIS:
        prefix = merged(impls[: basis.sigma0_len])
        tail = merged(impls[basis.sigma0_len :])
        return Basis(prefix + tail, BasisKind.DBASIS, len(prefix), basis.universe)
    return Basis(merged(impls), basis.kind, universe=basis.universe)


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_merge_same_lhs_agrees_with_merging_objects(case):
    basis = outcome(lambda: Basis._from_pairs(*case[:3], universe=case[3]))
    if isinstance(basis, Basis):
        got = merge_same_lhs(basis)
        want = reference_merge_same_lhs(basis)
        assert got == want
        assert got.pairs() == want.pairs()


def test_pairs_path_builds_no_implication_objects(monkeypatch, ex51):
    contexts = [ex51, random_standard_context(random.Random(29), 8)]
    probes = [
        Implication(AttributeSet(ctx.universe, 0b11), AttributeSet(ctx.universe, 0b100))
        for ctx in contexts
    ]
    built: list[Implication] = []
    post_init = Implication.__post_init__

    def counted(self) -> None:
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Implication, "__post_init__", counted)
    loaded = []
    for ctx, probe in zip(contexts, probes):
        for kind, build in BUILDERS.items():
            text = render_basis(build(ctx))
            basis = parse_basis(text)
            basis.attr_lists()
            basis.attr_masks()
            basis.binary_reach()
            for algo in TABLE_COMBOS[kind]:
                for bits in (0, 0b1, 0b101, ctx.universe.mask):
                    ALGORITHMS[algo](AttributeSet(ctx.universe, bits), basis)
            implies(basis, probe)
            again = parse_basis(text)
            assert basis == again and hash(basis) == hash(again)
            assert render_basis(basis) == text
            assert len(merge_same_lhs(basis)) <= len(basis)
            assert repr(basis) == f"Basis({kind.value}, {len(basis)} implications)"
            loaded.append(basis)
    assert built == []
    for basis in loaded:
        assert basis.implications is basis.implications
        assert list(basis) == list(basis.implications)
    assert len(built) == sum(map(len, loaded)) > 0
