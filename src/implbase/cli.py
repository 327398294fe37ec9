"""Command line front end.

Subcommands cover the whole pipeline: ``gen`` synthesises a standard
context, ``bases`` builds implication bases from a context, ``closure``
closes one attribute set (``--metrics`` adds the instrumentation
counters), ``check`` cross-validates the three bases of a context,
``bench`` runs the paired benchmark over a directory of contexts, and
``report`` aggregates a benchmark CSV.

``--verbose`` before the subcommand echoes progress detail to stderr.

Exit codes: 0 on success, 1 on a reported domain or I/O error, 2 on a
usage error.  Domain errors print ``error: <ClassName>: <message>`` to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .closure import ALGORITHMS
from .errors import ImplbaseError, InvalidBasis, IoError
from .sets import BasisKind

# Each command imports what it runs, so ``closure`` loads no builder, no
# context parser and no bench harness.


def _source_hash() -> str:
    """Short digest over the package sources, so builds are tellable apart."""
    import hashlib

    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:8]


def version_string() -> str:
    return f"implbase {__version__}+{_source_hash()}"


class _VersionAction(argparse.Action):
    """``--version`` that hashes the sources only when it is given."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        print(version_string())
        parser.exit()


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _timed(call, *operands):
    """The result of ``call(*operands)`` and its wall time in words."""
    from time import perf_counter_ns

    start = perf_counter_ns()
    result = call(*operands)
    return result, f"{(perf_counter_ns() - start) / 1e6:.3f} ms"


def _build(args: argparse.Namespace, ctx, kind: BasisKind):
    """The basis of ``kind`` of ``ctx``, noted with its size and build time."""
    from .bases import BUILDERS

    basis, took = _timed(BUILDERS[kind], ctx)
    _note(args, f"build {kind.value}: {len(basis)} implications, {took}")
    return basis


def _emit(text: str, target: Path | None) -> None:
    """Write ``text`` to ``target`` and say so, or to stdout without one."""
    if target is None:
        sys.stdout.write(text)
    else:
        target.write_text(text, encoding="utf-8")
        print(f"wrote {target}")


def cmd_gen(args: argparse.Namespace) -> int:
    from .context import gen_synthetic, render_cxt

    ctx = gen_synthetic(args.objects, args.attributes, args.density, args.seed)
    _note(args, f"standard context: {ctx.objects} objects x {ctx.universe.size} attributes")
    _emit(render_cxt(ctx), args.out)
    return 0


def cmd_bases(args: argparse.Namespace) -> int:
    from .bases import BUILDERS
    from .context import read_cxt
    from .sets import render_basis

    if args.kind == "all" and args.out is None:
        args.parser.error("--kind all writes three files and needs --out DIRECTORY")
    ctx = read_cxt(args.context)
    if args.kind == "all":
        args.out.mkdir(parents=True, exist_ok=True)
        targets = {kind: args.out / f"{kind.value}.imp" for kind in BUILDERS}
    else:
        targets = {BasisKind(args.kind): args.out}
    for kind, target in targets.items():
        _emit(render_basis(_build(args, ctx, kind)), target)
    return 0


def cmd_closure(args: argparse.Namespace) -> int:
    """Close one set.  The ``--verbose`` note gives the load time (reading
    and parsing the file, plus the indexes the algorithm builds before its
    kernel's clock starts) and the answer time (the kernel's own clock, or
    the whole call for the uncounted oracle).  A direct algorithm's
    refusal of a kind is the closure layer's :class:`WrongBasisKind`, which
    :func:`main` reports as raised.

    The answer ``Y`` is certified after the clock, by one simultaneous round
    of the basis on it (:func:`pass_once`).  Every algorithm adds only the
    rhs of implications whose lhs lies in its set or its prefix-closed
    seed, so ``X <= Y <= clo(X)``, and a closed ``Y`` is ``clo(X)``, the
    least closed superset.  A ``Y`` that the round grows comes from a
    single-round algorithm on a basis that is not the direct basis its
    ``# kind:`` header says, and is refused with :class:`InvalidBasis`
    naming an implication it leaves unfired."""
    from time import perf_counter_ns

    from .closure import oracle_closure, pass_once
    from .sets import read_basis

    algorithm = args.algorithm
    if args.metrics and algorithm == "oracle":
        args.parser.error("--metrics prints the counters, and --algo oracle counts nothing")
    start = perf_counter_ns()
    basis = read_basis(args.basis)
    x = basis.universe.subset(args.attrs.split())
    if algorithm == "oracle":
        loaded = perf_counter_ns()
        closure = oracle_closure(x, basis)
        answer_ns = perf_counter_ns() - loaded
        load_ns = loaded - start
    else:
        result = ALGORITHMS[algorithm](x, basis)
        answer_ns = result.metrics.elapsed_ns
        load_ns = perf_counter_ns() - start - answer_ns
        closure = result.closure
    if pass_once(closure, basis) != closure:
        y = closure.bits
        unfired = next(imp for imp in basis if imp.lhs.bits & ~y == 0 and imp.rhs.bits & ~y)
        raise InvalidBasis(
            f"the basis is not the {basis.kind.value} its header says: {algorithm} "
            f"closes {{{x}}} to {{{closure}}}, which leaves {unfired} unfired"
        )
    _note(
        args,
        f"basis kind {basis.kind.value}, {len(basis)} implications, "
        f"load {load_ns / 1e6:.3f} ms, answer {answer_ns / 1e6:.3f} ms",
    )
    print(str(closure))
    if args.metrics:
        m = result.metrics
        print(
            f"deps={m.deps} attrib={m.attribute_ops} inner={m.inner_loops} "
            f"outer={m.outer_loops} time_ns={m.elapsed_ns}"
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Cross-validate the three bases of a context, pair by pair.  The
    ``--verbose`` notes give the time of each build, each equivalence and
    each directness check."""
    from itertools import combinations

    from .bases import BUILDERS, check_equiv, direct_scope, direct_witness
    from .context import read_cxt

    ctx = read_cxt(args.context)
    named = [(kind.value, _build(args, ctx, kind)) for kind in BUILDERS]
    universe = ctx.universe
    print(f"universe: {universe.full()} ({universe.size} attributes)")
    for kind, basis in named:
        suffix = f" (sigma0 {basis.sigma0_len})" if kind == "dbasis" else ""
        print(f"{kind}: {len(basis)} implications{suffix}")
    for (n1, b1), (n2, b2) in combinations(named, 2):
        same, took = _timed(check_equiv, b1, b2)
        _note(args, f"equivalence {n1}~{n2}: {took}")
        print(f"equivalent {n1}~{n2}: {'yes' if same else 'NO'}")
    scope = direct_scope(universe.size)
    for kind, basis in named:
        word = "ordered-direct" if kind == "dbasis" else "direct"
        witness, took = _timed(direct_witness, basis)
        _note(args, f"directness {kind}: {took}")
        if witness is None:
            print(f"{word} {kind}: yes ({scope})")
        else:
            print(f"{word} {kind}: no (witness: {witness}; {scope})")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import WorkloadSpec, run_bench, write_reports_csv
    from .context import read_cxt

    files = sorted(args.datasets.glob("*.cxt"))
    if not files:
        raise IoError(f"no .cxt files under {args.datasets}")
    datasets = [(path.stem, read_cxt(path)) for path in files]
    _note(args, f"{len(datasets)} datasets, {args.jobs} jobs")
    spec = WorkloadSpec(
        queries=args.queries,
        repetitions=args.reps,
        seed=args.seed,
        query_density=args.query_density,
    )
    reports = run_bench(datasets, spec, jobs=args.jobs)
    write_reports_csv(reports, sys.stdout if args.out is None else args.out)
    if args.out is not None:
        print(f"wrote {args.out} ({len(reports)} rows)")
    return 0


def _total_cell(value: float, metric: str) -> str:
    return f"{value:.3f}" if metric == "time_ms" else f"{int(value)}"


def cmd_report(args: argparse.Namespace) -> int:
    from .bench import (
        METRIC_NAMES,
        RATIO_COMBOS,
        combo_label,
        metric_value,
        normalize,
        ranking,
        read_reports_csv,
        size_ratio_report,
    )

    if args.normalize and args.kind != "totals":
        args.parser.error("--normalize rescales the totals and needs --kind totals")
    reports = read_reports_csv(args.csv)
    if args.kind == "totals":
        print("dataset combo " + " ".join(METRIC_NAMES))
        if args.normalize:
            columns = [[f"{v:.2f}" for v in normalize(reports, m)] for m in METRIC_NAMES]
        else:
            columns = [
                [_total_cell(metric_value(r, m), m) for r in reports] for m in METRIC_NAMES
            ]
        for r, cells in zip(reports, zip(*columns)):
            print(f"{r.dataset} {combo_label(r)} {' '.join(cells)}")
        return 0
    if args.kind == "ranking":
        table = ranking(reports)
        for metric in METRIC_NAMES:
            ordered = sorted(table[metric].items(), key=lambda kv: (-kv[1], kv[0]))
            cells = " ".join(f"{label}={wins}" for label, wins in ordered)
            print(f"{metric}: {cells}")
        return 0
    combos = [f"{kind.value}:{algo}" for kind, algo in RATIO_COMBOS]
    print("bucket datasets", *combos)
    rows = size_ratio_report(reports)
    for row in rows:
        print(f"{row.bucket:.1f} {row.datasets} {row.wins_a} {row.wins_b}")
    datasets = len({r.dataset for r in reports})
    skipped = datasets - sum(row.datasets for row in rows)
    if skipped:
        print(
            f"note: {skipped} of {datasets} datasets not bucketed: each lacks a "
            f"{combos[0]} or {combos[1]} row, or has an empty cdub or dg",
            file=sys.stderr,
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; every :func:`main` call
    after the first parses with the same parser."""
    parser = argparse.ArgumentParser(
        prog="implbase",
        description="implication bases and instrumented closures over formal contexts",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        nargs=0,
        dest=argparse.SUPPRESS,
        default=argparse.SUPPRESS,
        help="show program's version number and exit",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="echo progress detail to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic standard context")
    p.add_argument("--objects", type=int, required=True)
    p.add_argument("--attributes", type=int, required=True)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", type=Path, help="target .cxt file (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bases", help="build implication bases from a context")
    p.add_argument("--in", dest="context", type=Path, required=True, help="a .cxt file")
    kinds = [kind.value for kind in BasisKind if kind is not BasisKind.RAW]
    p.add_argument("--kind", choices=[*kinds, "all"], default="all")
    p.add_argument(
        "-o",
        "--out",
        type=Path,
        help="target file, or directory with --kind all (default: stdout)",
    )
    p.set_defaults(func=cmd_bases, parser=p)

    p = sub.add_parser("closure", help="close an attribute set under a basis")
    p.add_argument("--basis", type=Path, required=True, help="a basis file")
    p.add_argument(
        "--set", dest="attrs", default="", help="space separated attributes to close"
    )
    p.add_argument(
        "--algo",
        dest="algorithm",
        required=True,
        choices=[*ALGORITHMS, "oracle"],
    )
    p.add_argument(
        "--metrics", action="store_true", help="print the counters after the closure"
    )
    p.set_defaults(func=cmd_closure, parser=p)

    p = sub.add_parser("check", help="build all bases and cross-validate them")
    p.add_argument("--in", dest="context", type=Path, required=True, help="a .cxt file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="run the paired benchmark over a context directory")
    p.add_argument(
        "--in",
        dest="datasets",
        type=Path,
        required=True,
        help="directory containing .cxt files",
    )
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--query-density", type=float, default=0.5)
    p.add_argument("-o", "--out", type=Path, help="target .csv file (default: stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="aggregate a benchmark CSV")
    p.add_argument("--in", dest="csv", type=Path, required=True, help="a bench CSV")
    p.add_argument("--kind", choices=["totals", "ranking", "ratio"], default="totals")
    p.add_argument("--normalize", action="store_true", help="rescale metrics onto [0, 100]")
    p.set_defaults(func=cmd_report, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return 1
    except (ImplbaseError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
