"""Command line surface: subcommands, output shape, exit codes."""

from __future__ import annotations

import argparse
import re
import shlex
import shutil
from pathlib import Path

import pytest

import implbase
from conftest import EX51_CXT, EX51_IMP, FIXTURES
from implbase import cli
from implbase.bases import BUILDERS, EXHAUSTIVE_LIMIT, SAMPLES
from implbase.cli import main
from implbase.context import parse_cxt, read_cxt
from implbase.sets import BasisKind, parse_basis, read_basis


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- version and usage ------------------------------------------------------------


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert re.fullmatch(r"implbase 0\.1\.0\+[0-9a-f]{8}\n", out)


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []
    real = argparse._SubParsersAction.add_parser

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            code, out, _ = run(
                capsys, "closure", "--basis", str(EX51_IMP), "--set", "b d", "--algo", "lin"
            )
            assert (code, out) == (0, "a b c d\n")
    finally:
        cli.build_parser.cache_clear()
    assert calls == ["gen", "bases", "closure", "check", "bench", "report"]


def test_sources_are_hashed_only_for_the_version_flag(capsys, monkeypatch):
    calls = []
    real = cli._source_hash
    monkeypatch.setattr(cli, "_source_hash", lambda: calls.append(1) or real())
    code, _, _ = run(capsys, "closure", "--basis", str(EX51_IMP), "--set", "b d", "--algo", "lin")
    assert code == 0
    assert calls == []
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert re.fullmatch(r"implbase 0\.1\.0\+[0-9a-f]{8}\n", out)
    assert calls == [1]


def test_package_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == implbase.__version__


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "gen", "--objects", "5")[0] == 2  # --attributes missing
    assert run(capsys, "closure", "--basis", str(EX51_IMP))[0] == 2  # --algo missing
    # the seed is the subcommand's alone
    assert run(capsys, "--seed", "8", "gen", "--objects", "12", "--attributes", "5")[0] == 2
    # --normalize rescales totals only, refused before the file (not a CSV) is read
    for kind in ("ranking", "ratio"):
        assert run(capsys, "report", "--in", str(EX51_CXT), "--kind", kind, "--normalize")[0] == 2
    # the oracle counts nothing, refused before the file (not there) is read
    missing = str(EX51_IMP.with_name("missing.imp"))
    assert run(capsys, "closure", "--basis", missing, "--algo", "oracle", "--metrics")[0] == 2


# -- gen ----------------------------------------------------------------------------


def test_gen_writes_a_standard_context(capsys, tmp_path):
    target = tmp_path / "new.cxt"
    code, out, _ = run(
        capsys,
        "gen", "--objects", "15", "--attributes", "6",
        "--density", "0.4", "--seed", "3", "-o", str(target),
    )
    assert code == 0
    assert str(target) in out
    ctx = read_cxt(target)
    assert ctx.universe.size <= 6


def test_gen_to_stdout_parses(capsys):
    code, out, _ = run(
        capsys, "gen", "--objects", "15", "--attributes", "6", "--seed", "3"
    )
    assert code == 0
    assert parse_cxt(out).objects >= 1


def test_gen_verbose_notes_go_to_stderr(capsys):
    code, out, err = run(
        capsys, "--verbose", "gen", "--objects", "12", "--attributes", "5"
    )
    assert code == 0
    assert "objects x" in err
    assert parse_cxt(out).objects >= 1


def test_gen_rejects_bad_density(capsys):
    code, _, err = run(
        capsys,
        "gen", "--objects", "5", "--attributes", "4", "--density", "1.5",
    )
    assert code == 1
    assert "error: ValueError" in err


# -- bases --------------------------------------------------------------------------


def test_bases_kind_choices_are_the_builders_and_all():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    kind = next(a for a in commands.choices["bases"]._actions if a.dest == "kind")
    assert kind.choices == [k.value for k in BUILDERS] + ["all"]


def test_bases_single_kind_to_stdout(capsys):
    code, out, _ = run(capsys, "bases", "--in", str(EX51_CXT), "--kind", "dbasis")
    assert code == 0
    assert out == EX51_IMP.read_text(encoding="utf-8")


def test_bases_all_kinds_to_directory(capsys, tmp_path):
    outdir = tmp_path / "bases"
    code, out, _ = run(
        capsys, "bases", "--in", str(EX51_CXT), "--kind", "all", "-o", str(outdir)
    )
    assert code == 0
    for kind in ("cdub", "dbasis", "dg"):
        basis = read_basis(outdir / f"{kind}.imp")
        assert basis.kind is BasisKind(kind)
    assert read_basis(outdir / "dbasis.imp") == read_basis(EX51_IMP)


def test_bases_all_requires_out(capsys):
    code, _, err = run(capsys, "bases", "--in", str(EX51_CXT), "--kind", "all")
    assert code == 2


def test_bases_missing_file_reports_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "bases", "--in", str(tmp_path / "absent.cxt"), "--kind", "dg"
    )
    assert code == 1
    assert err.startswith("error: IoError:")


def test_bases_malformed_file_reports_class_name(capsys, tmp_path):
    bad = tmp_path / "bad.cxt"
    bad.write_text("not a context\n")
    code, _, err = run(capsys, "bases", "--in", str(bad), "--kind", "dg")
    assert code == 1
    assert err.startswith("error: MalformedCxt:")


def test_bases_refuses_names_the_imp_format_cannot_hold(capsys, tmp_path):
    # ex51 with two attributes renamed; .cxt holds the names, .imp cannot
    text = EX51_CXT.read_text(encoding="utf-8").replace("\nb\n", "\nhas wings\n")
    cxt = tmp_path / "names.cxt"
    cxt.write_text(text.replace("\nc\n", "\nx->y\n"), encoding="utf-8")
    assert read_cxt(cxt).universe.names == ("a", "has wings", "x->y", "d")
    code, _, err = run(capsys, "bases", "--in", str(cxt), "--kind", "dbasis")
    assert code == 1
    assert err.startswith("error: UnrenderableName:")


# -- closure ------------------------------------------------------------------------


def test_closure_prints_set_only_by_default(capsys):
    code, out, _ = run(
        capsys,
        "closure", "--basis", str(EX51_IMP), "--algo", "classic", "--set", "b d",
    )
    assert code == 0
    assert out == "a b c d\n"


def test_closure_metrics_flag_adds_counters(capsys):
    code, out, _ = run(
        capsys,
        "closure", "--basis", str(EX51_IMP), "--set", "b d",
        "--algo", "lin-direct", "--metrics",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a b c d"
    assert re.fullmatch(
        r"deps=2 attrib=3 inner=5 outer=3 time_ns=\d+", lines[1]
    )


@pytest.mark.parametrize("algo", ["lin", "wild-direct", "classic-direct", "oracle"])
def test_closure_verbose_note_gives_load_and_answer_times(capsys, algo):
    argv = ["closure", "--basis", str(EX51_IMP), "--set", "b d", "--algo", algo]
    if algo != "oracle":
        argv.append("--metrics")
    code, out, err = run(capsys, "--verbose", *argv)
    assert code == 0
    assert re.fullmatch(
        r"basis kind dbasis, 4 implications, load \d+\.\d{3} ms, answer \d+\.\d{3} ms\n", err
    )
    quiet = run(capsys, *argv)
    assert quiet[0] == 0 and quiet[2] == ""
    # stdout is the same with and without the note, up to the measured time
    strip = re.compile(r"time_ns=\d+")
    assert strip.sub("", out) == strip.sub("", quiet[1])


def test_closure_rejects_direct_algorithm_on_wrong_kind(capsys, tmp_path):
    basis = parse_basis(EX51_IMP.read_text(encoding="utf-8"))
    raw = tmp_path / "raw.imp"
    text = "\n".join(
        line
        for line in EX51_IMP.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    )
    raw.write_text("# kind: raw\n" + text + "\n")
    code, _, err = run(
        capsys,
        "closure", "--basis", str(raw), "--set", "b d", "--algo", "wild-direct",
    )
    assert code == 1
    assert err == "error: WrongBasisKind: direct algorithms require a cdub or dbasis, not raw\n"
    assert basis.kind is BasisKind.DBASIS  # the original file stays typed


def test_closure_unknown_attribute(capsys):
    code, _, err = run(
        capsys, "closure", "--basis", str(EX51_IMP), "--algo", "classic", "--set", "z"
    )
    assert code == 1
    assert err.startswith("error: UnknownAttribute:")


@pytest.mark.parametrize("token", ["\u00b2", "\u0661"])
def test_closure_refuses_non_ascii_digit_positions(capsys, tmp_path, token):
    basis = tmp_path / "abc.imp"
    basis.write_text("universe: a b c\na -> b\n", encoding="utf-8")
    code, out, err = run(
        capsys, "closure", "--basis", str(basis), "--algo", "oracle", "--set", token
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: UnknownAttribute:")


def test_closure_refuses_repeated_universe_names_as_a_syntax_error(capsys, tmp_path):
    basis = tmp_path / "dup.imp"
    basis.write_text("universe: a a\na -> a\n", encoding="utf-8")
    code, out, err = run(
        capsys, "closure", "--basis", str(basis), "--algo", "classic", "--set", "a"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ImplicationSyntaxError:")


# -- check --------------------------------------------------------------------------


def test_check_reports_sizes_equivalence_and_directness(capsys):
    code, out, _ = run(capsys, "check", "--in", str(EX51_CXT))
    assert code == 0
    assert "universe: a b c d (4 attributes)" in out
    assert "cdub: 5 implications" in out
    assert "dbasis: 4 implications (sigma0 1)" in out
    assert "dg: 4 implications" in out
    assert "equivalent cdub~dbasis: yes" in out
    assert "equivalent cdub~dg: yes" in out
    assert "equivalent dbasis~dg: yes" in out
    assert "direct cdub: yes" in out
    assert "ordered-direct dbasis: yes" in out
    assert "direct dg: no (witness:" in out
    assert "direct cdub: yes (exhaustive, 16 sets)" in out
    assert "ordered-direct dbasis: yes (exhaustive, 16 sets)" in out
    assert "direct dg: no (witness: a d; exhaustive, 16 sets)" in out


def test_check_says_when_directness_was_sampled(capsys, tmp_path):
    target = tmp_path / "wide.cxt"
    run(capsys, "gen", "--objects", "15", "--attributes", "19", "--seed", "3", "-o", str(target))
    assert read_cxt(target).universe.size > EXHAUSTIVE_LIMIT
    code, out, _ = run(capsys, "check", "--in", str(target))
    assert code == 0
    scope = f"(sampled, {SAMPLES} sets, seed 0)"
    assert f"direct cdub: yes {scope}" in out
    assert f"ordered-direct dbasis: yes {scope}" in out


@pytest.mark.parametrize(
    "attributes, seed, witness, scope",
    [
        (12, 0, "m1 m3", "exhaustive, 4096 sets"),
        (13, 1, "m1 m7 m12 m13", "sampled, 2048 sets, seed 0"),
    ],
)
def test_check_directness_verdicts_on_both_sides_of_the_limit(
    capsys, tmp_path, attributes, seed, witness, scope
):
    target = tmp_path / "edge.cxt"
    run(
        capsys, "gen", "--objects", "16", "--attributes", str(attributes),
        "--seed", str(seed), "-o", str(target),
    )
    assert read_cxt(target).universe.size == attributes
    code, out, _ = run(capsys, "check", "--in", str(target))
    assert code == 0
    assert out.splitlines()[-3:] == [
        f"direct cdub: yes ({scope})",
        f"ordered-direct dbasis: yes ({scope})",
        f"direct dg: no (witness: {witness}; {scope})",
    ]


def gen13(capsys, tmp_path: Path) -> Path:
    """The golden 13-attribute context, one past the exhaustive limit."""
    target = tmp_path / "gen13.cxt"
    run(
        capsys, "gen", "--objects", "16", "--attributes", "13", "--density", "0.3",
        "--seed", "1", "-o", str(target),
    )
    return target


def test_check_asks_in_pair_order(capsys, tmp_path, monkeypatch):
    target = gen13(capsys, tmp_path)
    entailed: list[BasisKind] = []
    real = implbase.bases._entails

    def counted(basis, other, record):
        entailed.append(basis.kind)
        return real(basis, other, record)

    monkeypatch.setattr(implbase.bases, "_entails", counted)
    implbase.bases._sliced.cache_clear()
    code, out, _ = run(capsys, "check", "--in", str(target))
    assert code == 0
    # cdub~dbasis and cdub~dg run both directions each; dbasis~dg follows
    # from them without a round
    assert entailed == [BasisKind.CDUB, BasisKind.DBASIS, BasisKind.CDUB, BasisKind.DG]
    assert [line for line in out.splitlines() if line.startswith("equivalent")] == [
        "equivalent cdub~dbasis: yes",
        "equivalent cdub~dg: yes",
        "equivalent dbasis~dg: yes",
    ]


def test_check_verbose_notes_say_where_the_time_went(capsys, tmp_path):
    target = gen13(capsys, tmp_path)
    code, out, err = run(capsys, "--verbose", "check", "--in", str(target))
    assert code == 0
    quiet = run(capsys, "check", "--in", str(target))
    assert quiet == (0, out, "")
    ms = r"\d+\.\d{3} ms"
    phases = [rf"build {kind}: \d+ implications, {ms}" for kind in ("cdub", "dbasis", "dg")]
    phases += [rf"equivalence {pair}: {ms}" for pair in ("cdub~dbasis", "cdub~dg", "dbasis~dg")]
    phases += [rf"directness {kind}: {ms}" for kind in ("cdub", "dbasis", "dg")]
    lines = err.splitlines()
    assert len(lines) == len(phases)
    for line, phase in zip(lines, phases):
        assert re.fullmatch(phase, line)


# -- bench and report ----------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    ctxdir = root / "ctx"
    ctxdir.mkdir()
    for seed in (1, 2):
        assert (
            main(
                [
                    "gen", "--objects", "14", "--attributes", "6", "--density", "0.5",
                    "--seed", str(seed), "-o", str(ctxdir / f"g{seed}.cxt"),
                ]
            )
            == 0
        )
    return ctxdir


def test_bench_writes_csv(capsys, bench_dir, tmp_path):
    target = tmp_path / "results.csv"
    code, out, _ = run(
        capsys,
        "bench", "--in", str(bench_dir), "--queries", "80", "--reps", "1",
        "--seed", "5", "-o", str(target),
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert (
        lines[0]
        == "dataset,universe,basis_kind,basis_size,algorithm,queries,reps,deps,attrib_ops,inner,outer,time_ms"
    )
    assert len(lines) == 1 + 2 * 9


@pytest.mark.parametrize(
    "flags",
    [["--queries", "-5"], ["--reps", "-2"], ["--reps", "0"], ["--jobs", "0"], ["--jobs", "-3"]],
)
def test_bench_refuses_negative_sizes(capsys, bench_dir, tmp_path, flags):
    target = tmp_path / "refused.csv"
    code, out, err = run(capsys, "bench", "--in", str(bench_dir), *flags, "-o", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValueError: ")
    assert not target.exists()


@pytest.mark.parametrize("density", ["nan", "1.5", "inf", "-0.2"])
def test_bench_refuses_a_query_density_outside_the_unit_interval(
    capsys, bench_dir, tmp_path, density
):
    target = tmp_path / "refused.csv"
    code, out, err = run(
        capsys, "bench", "--in", str(bench_dir), "--query-density", density, "-o", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValueError: ")
    assert not target.exists()


def test_report_refuses_a_time_the_writer_cannot_write(capsys, bench_dir, tmp_path):
    code, out, _ = run(capsys, "bench", "--in", str(bench_dir), "--queries", "5", "--reps", "1")
    assert code == 0
    header, row = out.splitlines()[:2]
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(f"{header}\n{row.rsplit(',', 1)[0]},inf\n")
    code, out, err = run(capsys, "report", "--in", str(csv_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: MalformedReport: CSV cell time_ms ")


def test_report_names_a_malformed_csv_as_a_domain_error(capsys, tmp_path):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("dataset,universe\n")
    code, out, err = run(capsys, "report", "--in", str(csv_path))
    assert code == 1
    assert out == ""
    assert err == "error: MalformedReport: unexpected CSV header\n"


def test_bench_to_stdout_and_reports(capsys, bench_dir, tmp_path):
    code, out, _ = run(
        capsys, "bench", "--in", str(bench_dir), "--queries", "40", "--reps", "1"
    )
    assert code == 0
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(out)

    code, totals, _ = run(capsys, "report", "--in", str(csv_path))
    assert code == 0
    assert totals.splitlines()[0] == "dataset combo deps attrib_ops inner outer time_ms"
    assert "g1 cdub:classic-direct" in totals

    code, normalized, _ = run(capsys, "report", "--in", str(csv_path), "--normalize")
    assert code == 0
    assert "100.00" in normalized or "0.00" in normalized

    code, ranking_out, _ = run(
        capsys, "report", "--in", str(csv_path), "--kind", "ranking"
    )
    assert code == 0
    assert ranking_out.startswith("deps:")

    code, ratio_out, _ = run(capsys, "report", "--in", str(csv_path), "--kind", "ratio")
    assert code == 0
    assert ratio_out.splitlines()[0] == "bucket datasets dg:classic cdub:wild-direct"
    assert len(ratio_out.splitlines()) >= 2


def test_bench_requires_datasets(capsys, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, err = run(capsys, "bench", "--in", str(empty))
    assert code == 1
    assert err.startswith("error: IoError:")


# -- the README's examples ----------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[tuple[list[str], list[str]]]:
    """Each ``$`` line in the code blocks of the README's ``## Command line``
    section, split into words, with the lines shown under it, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands: list[tuple[list[str], list[str]]] = []
    for block in section.split("```")[1::2]:
        for line in block.strip("\n").splitlines():
            if line.startswith("$ "):
                commands.append((shlex.split(line[2:]), []))
            else:
                commands[-1][1].append(line)
    return commands


def test_the_readme_commands_run_as_shown(capsys, tmp_path, monkeypatch):
    """Every ``implbase`` command exits 0, in a directory holding a copy of
    ``fixtures/``.  One with lines shown under it prints exactly them, with
    ``time_ns=`` masked; a last shown line ending in ``...`` is cut short,
    and only what comes before the dots is compared."""
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv, shown in readme_commands():
        if argv[0] in ("cat", "head"):
            continue
        if argv[:2] == ["mkdir", "-p"]:
            Path(argv[2]).mkdir(parents=True, exist_ok=True)
            continue
        assert argv[0] == "implbase", argv
        code, out, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
        ran.append(argv[1])
        expected = "".join(f"{line}\n" for line in shown)
        out = re.sub(r"time_ns=\d+", "time_ns=", out)
        expected = re.sub(r"time_ns=\d+", "time_ns=", expected)
        if expected.endswith("...\n"):
            assert out.startswith(expected[:-4]), argv
        elif expected:
            assert out == expected, argv
    assert ran == ["check", "bases", "closure", "closure", "gen", "gen", "bench", "report"]
