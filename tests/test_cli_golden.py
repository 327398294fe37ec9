"""Golden digests of command transcripts.

Each case runs one ``implbase`` command in a temporary directory and pins the
first 16 hex digits of the sha256 of its exit code, stdout and stderr, and of
the files ``bases`` and ``bench`` write.  Wall times are masked: ``time_ns=``
in ``closure --metrics``, the build times that ``--verbose bases`` notes and
the ``time_ms`` column of the ``bench`` CSV.  The ``report`` cases read
that CSV with ``time_ms`` replaced by the ``inner`` counter, so their
verdicts rest on counted work.

The corpus is ``ex51`` and a seeded 13-attribute ``gen`` context, one past
``EXHAUSTIVE_LIMIT``, so ``check`` reports both an exhaustive and a sampled
directness scope.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shutil
from pathlib import Path

import pytest

from conftest import EX51_CXT
from implbase.bases import EXHAUSTIVE_LIMIT
from implbase.cli import main
from implbase.context import read_cxt

#: The corpus, each name with the attribute set its ``closure`` cases close.
SETS = {"ex51": "b d", "gen13": "m2 m7"}

GOLDEN = {
    "ex51/check": "25f6b4979770aba6",
    "ex51/bases-all": "884971e1d60016b1",
    "ex51/bases-dbasis": "2fa50daeff25ad47",
    "ex51/closure": "f5fade5915f13edd",
    "ex51/closure-invalid-combo": "0b80f093794f10b6",
    "ex51/closure-unknown-attribute": "6aa59316e84ff035",
    "gen13/gen": "7c1cf6287d488d6d",
    "gen13/check": "8854935f9ce163de",
    "gen13/bases-all": "c608c2d33a96d270",
    "gen13/bases-dbasis": "646f882d165a1db7",
    "gen13/closure": "aa641f72f4164759",
    "gen13/closure-invalid-combo": "6219bbaa7924ebbc",
    "gen13/closure-unknown-attribute": "9e3926d146b92257",
    "corpus/bench": "ada8356483d15019",
    "corpus/report-ratio": "44c80f4118df3808",
    "corpus/report-totals": "b2f10bb715c2ba64",
    "corpus/report-totals-normalized": "d66b18ebbc463d08",
    "corpus/report-ranking": "02e955b2a484de7a",
}

#: Valid algorithms per basis file, oracle included.
CLOSURES = (
    ("cdub", ("classic-direct", "lin-direct", "wild-direct", "oracle")),
    ("dbasis", ("classic-direct", "lin-direct", "wild-direct", "oracle")),
    ("dg", ("classic", "lin", "wild", "oracle")),
)

#: ``report`` cases and their flags.
REPORTS = (
    ("report-ratio", "--kind", "ratio"),
    ("report-totals", "--kind", "totals"),
    ("report-totals-normalized", "--kind", "totals", "--normalize"),
    ("report-ranking", "--kind", "ranking"),
)


def invoke(*argv: str) -> str:
    """Transcript of one command: argv, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}--\n{err.getvalue()}--\n"


def files(directory: Path) -> str:
    """Name and text of every file in ``directory``, in name order."""
    paths = sorted(directory.iterdir())
    return "".join(f"== {path.name}\n{path.read_text(encoding='utf-8')}" for path in paths)


def mask_csv(text: str, fill: str | None = None) -> str:
    """The CSV with ``time_ms`` masked, or copied from the ``fill`` column."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    time = header.index("time_ms")
    for row in rows:
        row[time] = row[header.index(fill)] if fill else "*"
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def dataset_transcripts(name: str) -> dict[str, str]:
    """Run the per-dataset cases in the current directory."""
    out: dict[str, str] = {}
    if name == "ex51":
        shutil.copy(EX51_CXT, "ex51.cxt")
    else:
        out["gen"] = invoke(
            "gen", "--objects", "16", "--attributes", "13", "--density", "0.3",
            "--seed", "1", "-o", f"{name}.cxt",
        )
    cxt = f"{name}.cxt"
    out["check"] = invoke("check", "--in", cxt)
    built = invoke("--verbose", "bases", "--in", cxt, "--kind", "all", "-o", name)
    out["bases-all"] = re.sub(r"\d+\.\d{3} ms", "* ms", built)
    out["bases-all"] += files(Path(name))
    out["bases-dbasis"] = invoke("bases", "--in", cxt, "--kind", "dbasis")
    closures = "".join(
        invoke(
            "closure", "--basis", f"{name}/{kind}.imp", "--set", SETS[name],
            "--algo", algo, *(() if algo == "oracle" else ("--metrics",)),
        )
        for kind, algos in CLOSURES
        for algo in algos
    )
    out["closure"] = re.sub(r"time_ns=\d+", "time_ns=*", closures)
    out["closure-invalid-combo"] = invoke(
        "closure", "--basis", f"{name}/dg.imp", "--set", SETS[name], "--algo", "lin-direct"
    )
    out["closure-unknown-attribute"] = invoke(
        "closure", "--basis", f"{name}/cdub.imp", "--set", "nosuch", "--algo", "classic-direct"
    )
    return out


def corpus_transcripts() -> dict[str, str]:
    """Run ``bench`` over both contexts, then ``report`` on its CSV."""
    os.mkdir("data")
    for name in SETS:
        shutil.copy(f"{name}.cxt", "data")
    out = {
        "bench": invoke(
            "bench", "--in", "data", "--queries", "300", "--reps", "2", "--seed", "7",
            "-o", "bench.csv",
        )
    }
    csv_text = Path("bench.csv").read_text(encoding="utf-8")
    out["bench"] += mask_csv(csv_text)
    Path("counted.csv").write_text(mask_csv(csv_text, "inner"), encoding="utf-8")
    for case, *flags in REPORTS:
        out[case] = invoke("report", "--in", "counted.csv", *flags)
    return out


@pytest.fixture(scope="module")
def transcript(tmp_path_factory) -> dict[str, str]:
    here = os.getcwd()
    table: dict[str, str] = {}
    os.chdir(tmp_path_factory.mktemp("cli"))
    try:
        for name in SETS:
            for case, text in dataset_transcripts(name).items():
                table[f"{name}/{case}"] = text
        for case, text in corpus_transcripts().items():
            table[f"corpus/{case}"] = text
    finally:
        os.chdir(here)
    return table


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_cases_and_golden_table_agree(transcript):
    assert list(transcript) == list(GOLDEN)


def test_generated_context_is_past_the_exhaustive_limit(transcript):
    assert read_cxt(EX51_CXT).universe.size <= EXHAUSTIVE_LIMIT
    assert "(13 attributes)" in transcript["gen13/check"]
    assert "sampled" in transcript["gen13/check"]


@pytest.mark.parametrize("case", list(GOLDEN))
def test_transcript_matches_the_golden_digest(transcript, case):
    assert digest(transcript[case]) == GOLDEN[case], transcript[case]
