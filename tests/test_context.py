"""Contexts: closure operator, clarification, reduction, generation, file I/O."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EX51_CXT, aset, closed_family, contranominal, ctx_from_rows
from implbase.context import (
    Context,
    _distinct,
    _irreducible,
    _select,
    clarify,
    gen_synthetic,
    is_clarified,
    is_reduced,
    is_standard,
    parse_cxt,
    read_cxt,
    reduce,
    render_cxt,
    require_standard,
)
from implbase.errors import (
    DegenerateContext,
    ImplbaseError,
    MalformedCxt,
    NotClarified,
    NotStandardContext,
    UnrenderableName,
)
from implbase.sets import AttributeSet, Universe


def closure(ctx: Context, tokens: str) -> str:
    return str(AttributeSet(ctx.universe, ctx.closure_bits(aset(ctx.universe, tokens).bits)))


# -- the closure operator -------------------------------------------------------


def test_closures_on_worked_example(ex51):
    assert closure(ex51, "") == ""
    assert closure(ex51, "a") == "a"
    assert closure(ex51, "b") == "b"
    assert closure(ex51, "c") == "c"
    assert closure(ex51, "d") == "c d"
    assert closure(ex51, "b d") == "a b c d"
    assert closure(ex51, "a c") == "a c"
    assert closure(ex51, "a b") == "a b c d"


def test_closure_is_universe_when_no_row_contains_the_set(ex51):
    assert closure(ex51, "a b c d") == "a b c d"
    assert closure(ex51, "b c") == "a b c d"


@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=10),
    st.integers(0, 255),
    st.integers(0, 255),
)
def test_closure_operator_laws(row_bits, xa, xb):
    u = Universe(size=8)
    ctx = Context(u, [AttributeSet(u, bits) for bits in row_bits])
    ca = ctx.closure_bits(xa)
    cb = ctx.closure_bits(xb)
    assert xa & ca == xa
    assert ctx.closure_bits(ca) == ca
    if xa & xb == xa:
        assert ca & cb == ca
    assert ctx.closure_bits(xa | xb) == ctx.closure_bits(ca | cb)


# -- clarification ----------------------------------------------------------------


def test_clarify_drops_duplicate_rows_and_columns():
    ctx = ctx_from_rows(["p", "q", "r"], ["p q", "p q", "r"])
    assert not is_clarified(ctx)  # duplicate rows, and p/q share an extent
    out = clarify(ctx)
    assert is_clarified(out)
    assert out.universe.names == ("p", "r")
    assert [row.bits for row in out.rows] == [0b01, 0b10]


def test_clarify_keeps_first_occurrence_labels():
    ctx = ctx_from_rows(["p", "q"], ["p q", "p q"])
    out = clarify(ctx)
    assert out.universe.names == ("p",)
    assert out.objects == 1


def test_clarify_is_idempotent_on_random_contexts():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 7)
        u = Universe(size=n)
        rows = [AttributeSet(u, rng.getrandbits(n)) for _ in range(rng.randint(1, 12))]
        once = clarify(Context(u, rows))
        assert is_clarified(once)
        assert clarify(once) == once


# -- reduction ---------------------------------------------------------------------


def test_column_bits_of_a_context_without_objects():
    assert Context(Universe(size=3), []).column_bits() == (0, 0, 0)


def test_reduce_requires_clarified():
    ctx = ctx_from_rows(["p", "q"], ["p", "p"])
    with pytest.raises(NotClarified):
        reduce(ctx)


def test_reduce_drops_intersection_column():
    # extent(c) = extent(p) & extent(q), so c carries no information
    ctx = ctx_from_rows(["p", "q", "c", "d"], ["p d", "q d", "p q c"])
    assert is_clarified(ctx) and not is_reduced(ctx)
    out = reduce(ctx)
    assert out.universe.names == ("p", "q", "d")
    assert is_standard(out)


def test_reduce_drops_full_rows_and_created_dead_weight():
    # the full row goes as an empty intersection, then the column whose
    # extent became the meet of the remaining ones
    ctx = ctx_from_rows(["p", "q", "r"], ["p", "q", "p q r"])
    out = reduce(ctx)
    assert out.universe.names == ("p", "q")
    assert [row.bits for row in out.rows] == [0b01, 0b10]
    assert is_standard(out)


def test_reduce_drops_intersection_row():
    ctx = ctx_from_rows(["p", "q", "r"], ["p q", "q r", "q"])
    # row {q} is the meet of the other two rows
    out = reduce(ctx)
    assert out.objects == 2
    assert is_standard(out)


def test_reduce_to_nothing_raises():
    with pytest.raises(DegenerateContext):
        reduce(ctx_from_rows(["a"], ["a"]))


def test_worked_example_is_standard(ex51):
    assert is_standard(ex51)
    require_standard(ex51)


def test_contranominal_is_standard():
    for n in (2, 3, 4, 5):
        assert is_standard(contranominal(n))


def test_require_standard_rejects_unreduced():
    with pytest.raises(NotStandardContext):
        require_standard(ctx_from_rows(["a"], ["a"]))
    with pytest.raises(NotStandardContext):
        require_standard(ctx_from_rows(["p", "q"], ["p", "p"]))


def test_single_empty_row_is_standard():
    ctx = ctx_from_rows(["a"], [""])
    assert is_standard(ctx)


def _projection(
    original: Context, reduced: Context
) -> frozenset[int]:
    kept = [original.universe.resolve(reduced.universe.label(j)) for j in range(reduced.universe.size)]
    projected = set()
    for bits in closed_family(original):
        image = 0
        for new_j, old_j in enumerate(kept):
            if bits >> old_j & 1:
                image |= 1 << new_j
        projected.add(image)
    return frozenset(projected)


def test_standardisation_projects_the_closure_system():
    rng = random.Random(404)
    for _ in range(150):
        n = rng.randint(2, 9)
        u = Universe(names=[f"m{j}" for j in range(n)])
        rows = [
            AttributeSet(u, rng.getrandbits(n)) for _ in range(rng.randint(2, 2 * n))
        ]
        ctx = Context(u, rows)
        try:
            std = reduce(clarify(ctx))
        except DegenerateContext:
            continue
        assert is_standard(std)
        assert closed_family(std) == _projection(ctx, std)


# clarify selects once and reduce runs in one step; the references below are
# the two-select clarification and the reduction loop that re-scans after every
# removal, and the one-step versions must match them exactly


def reference_clarify(ctx: Context) -> Context:
    interim = _select(ctx, _distinct(ctx.row_bits()), range(ctx.universe.size))
    return _select(interim, range(interim.objects), _distinct(interim.column_bits()))


def iterative_reduce(ctx: Context) -> Context:
    if not is_clarified(ctx):
        raise NotClarified("reduce requires a clarified context")
    current = ctx
    while True:
        rows = current.row_bits()
        keep_rows = _irreducible(rows, current.universe.mask)
        if len(keep_rows) != len(rows):
            current = _select(current, keep_rows, list(range(current.universe.size)))
            if current.objects == 0:
                raise DegenerateContext("reduction removed every object")
            continue
        cols = current.column_bits()
        keep_cols = _irreducible(cols, (1 << current.objects) - 1)
        if len(keep_cols) != len(cols):
            if not keep_cols:
                raise DegenerateContext("reduction removed every attribute")
            current = _select(current, list(range(current.objects)), keep_cols)
            continue
        return current


def outcome(step, ctx: Context) -> Context | tuple[type, str]:
    """The step's context, or the class and message of its domain error."""
    try:
        return step(ctx)
    except ImplbaseError as exc:
        return type(exc), str(exc)


@st.composite
def labelled_contexts(draw) -> Context:
    n = draw(st.integers(1, 9))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    u = Universe(names=[f"m{j}" for j in range(n)])
    names = [f"g{i}" for i in range(len(rows))]
    return Context(u, [AttributeSet(u, bits) for bits in rows], names)


@given(labelled_contexts())
def test_one_step_clarify_and_reduce_match_the_references(ctx):
    clarified = clarify(ctx)
    assert clarified == reference_clarify(ctx)
    assert outcome(reduce, clarified) == outcome(iterative_reduce, clarified)
    assert outcome(reduce, ctx) == outcome(iterative_reduce, ctx)


def test_one_step_reduce_matches_the_loop_on_degenerate_contexts():
    for rows in (["a"], ["a", ""], []):
        ctx = clarify(ctx_from_rows(["a"], rows))
        assert outcome(reduce, ctx) == outcome(iterative_reduce, ctx)
    full_row, no_row = ctx_from_rows(["a"], ["a"]), ctx_from_rows(["a"], [])
    assert outcome(reduce, full_row) == (DegenerateContext, "reduction removed every object")
    assert outcome(reduce, no_row) == (DegenerateContext, "reduction removed every attribute")


def test_reduce_is_idempotent():
    rng = random.Random(405)
    for _ in range(100):
        n = rng.randint(2, 8)
        u = Universe(size=n)
        rows = [
            AttributeSet(u, rng.getrandbits(n)) for _ in range(rng.randint(2, 12))
        ]
        try:
            std = reduce(clarify(Context(u, rows)))
        except DegenerateContext:
            continue
        assert reduce(std) == std


# -- synthetic generation -----------------------------------------------------------


def test_gen_synthetic_is_deterministic():
    a = gen_synthetic(20, 8, 0.4, seed=7)
    b = gen_synthetic(20, 8, 0.4, seed=7)
    assert a == b
    assert render_cxt(a) == render_cxt(b)
    assert is_standard(a)


def test_gen_synthetic_varies_with_seed():
    outputs = {render_cxt(gen_synthetic(20, 8, 0.4, seed=s)) for s in range(5)}
    assert len(outputs) > 1


def test_gen_synthetic_parameter_validation():
    with pytest.raises(ValueError):
        gen_synthetic(0, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(4, 0, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(4, 4, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(4, 4, 1.0, seed=0)


def test_gen_synthetic_degenerate_density_raises():
    # a near-saturated tiny table reduces to nothing for some seed
    raised = False
    for seed in range(50):
        try:
            gen_synthetic(2, 2, 0.99, seed=seed)
        except DegenerateContext:
            raised = True
            break
    assert raised


# -- file format ---------------------------------------------------------------------


def test_render_parse_round_trip(ex51, tmp_path):
    text = render_cxt(ex51)
    again = parse_cxt(text)
    assert again == ex51
    target = tmp_path / "copy.cxt"
    target.write_text(text, encoding="utf-8")
    assert read_cxt(target) == ex51


def test_fixture_file_is_canonical(ex51):
    assert render_cxt(ex51) == EX51_CXT.read_text(encoding="utf-8")


def test_parse_cxt_accepts_blank_lines_between_sections(ex51):
    text = render_cxt(ex51)
    relaxed = text.replace("B\n\n4", "B\n\n\n4")
    assert parse_cxt(relaxed) == ex51


def test_random_contexts_round_trip():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 9)
        u = Universe(names=[f"m{j}" for j in range(n)])
        rows = []
        seen = set()
        for _ in range(rng.randint(1, 10)):
            bits = rng.getrandbits(n)
            rows.append(AttributeSet(u, bits))
            seen.add(bits)
        ctx = Context(u, rows, [f"g{i}" for i in range(len(rows))])
        text = render_cxt(ctx)
        assert parse_cxt(text) == ctx
        assert parse_cxt(text.replace("\n", "\r\n")) == ctx
        assert parse_cxt(text.replace("\n", "\n \t\n")) == ctx


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("B\n", "Q\n", 1), None),  # wrong magic
        (lambda t: t.replace("\n4\n4\n", "\n0\n4\n", 1), None),  # zero objects
        (lambda t: t.replace("\n4\n4\n", "\n4\nfour\n", 1), None),  # non-numeric count
        (lambda t: t.replace("\n4\n4\n", "\n\u00b2\n4\n", 1), None),  # superscript digit count
        (lambda t: t.replace("\n4\n4\n", "\n4\n\u0661\n", 1), None),  # Arabic-Indic digit count
        (lambda t: t.replace("X.X.\n", "X.X\n", 1), None),  # short row
        (lambda t: t.replace("X.X.\n", "X?X.\n", 1), "row 0: unexpected cell '\\?'"),  # bad cell
        (lambda t: t + "leftover\n", None),  # trailing content
        (lambda t: t.replace("\nb\n", "\na\n", 1), None),  # duplicate attribute name
        (lambda t: "\n".join(t.splitlines()[:8]) + "\n", None),  # truncated
    ],
    # the ids the cases had when the mangle was their one parameter
    ids=[f"<lambda>{i}" for i in range(10)],
)
def test_parse_cxt_rejects_malformed_input(ex51, mangle, message):
    text = render_cxt(ex51)
    with pytest.raises(MalformedCxt, match=message):
        parse_cxt(mangle(text))


#: Names that parse_cxt skips as a blank line,
BLANK_NAMES = ["", " ", "\t", " \u3000 "]
#: and names that every line break str.splitlines knows splits in two.
BROKEN_NAMES = [f"x{brk}y" for brk in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"] + ["x\r\ny", "x\n"]


def two_by_two(objects: list[str], attributes: list[str]) -> Context:
    u = Universe(names=attributes)
    return Context(u, [AttributeSet(u, 0b01), AttributeSet(u, 0b10)], objects)


@pytest.mark.parametrize("name", BLANK_NAMES + BROKEN_NAMES)
@pytest.mark.parametrize("role", ["object", "attribute"])
def test_render_cxt_refuses_names_that_do_not_read_back(name, role):
    objects, attributes = ["g1", "g2"], ["m1", "m2"]
    (objects if role == "object" else attributes)[1] = name
    ctx = two_by_two(objects, attributes)
    with pytest.raises(UnrenderableName, match=re.escape(f"cannot write {role} name {name!r}:")):
        render_cxt(ctx)


def test_render_cxt_refuses_names_that_would_misparse_without_error():
    # what an unchecked render wrote for this context reads back as another
    # context with no error: the blank object name is skipped, and the
    # broken attribute name lends its first half to the objects
    written = "B\n\n2\n2\n\n\ng2\nx\ny\nz\nX.\n.X\n"
    misread = parse_cxt(written)
    assert misread.object_names == ("g2", "x")
    assert misread.universe.names == ("y", "z")
    with pytest.raises(UnrenderableName, match="cannot write object name '':"):
        render_cxt(two_by_two(["", "g2"], ["x\ny", "z"]))


def test_names_with_inner_or_leading_spaces_round_trip():
    ctx = two_by_two(["g 1", "  g1"], ["m 1", "  m1"])
    assert parse_cxt(render_cxt(ctx)) == ctx


@pytest.mark.parametrize(
    "attributes, objects, role",
    [(None, None, "objects"), (["m1", "m2"], None, "objects"), (None, ["g1", "g2"], "attributes")],
)
def test_render_cxt_refuses_unnamed_positions(attributes, objects, role):
    # written as 0 1, unnamed positions would read back as the names '0' '1'
    u = Universe(size=2, names=attributes)
    ctx = Context(u, [AttributeSet(u, 0b01), AttributeSet(u, 0b10)], objects)
    with pytest.raises(UnrenderableName, match=f"cannot write unnamed {role}:"):
        render_cxt(ctx)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_render_cxt_round_trips_or_refuses_any_names(size, objects, data):
    attributes = data.draw(
        st.none() | st.lists(st.text(max_size=6), min_size=size, max_size=size, unique=True)
    )
    u = Universe(size=size, names=attributes)
    rows = [AttributeSet(u, data.draw(st.integers(0, u.mask))) for _ in range(objects)]
    object_names = data.draw(
        st.none() | st.lists(st.text(max_size=6), min_size=objects, max_size=objects)
    )
    ctx = Context(u, rows, object_names)
    try:
        text = render_cxt(ctx)
    except UnrenderableName:
        return
    assert parse_cxt(text) == ctx


def test_render_cxt_requires_nonempty_axes():
    u = Universe(size=2)
    with pytest.raises(MalformedCxt):
        render_cxt(Context(u, []))
