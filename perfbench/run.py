"""Run one workload of the layered benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build|query|oneshot --seed N \
        --seconds S --trace 0|1

The benchmark imports implbase from ``src/`` of the same checkout and exits
with code 2 when it is missing.  It prints one line per metric, then, as the
last line, a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The result, with its provenance, and the spans
of a traced run are written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["build", "query", "oneshot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "implbase" / "__init__.py").is_file():
        print(f"perfbench: no implbase sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import END_TO_END, PER_LAYER, execute

    run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    values = run.layers if args.trace else run.e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    checks = run.checks
    result = {
        "correct": checks.attempted > 0 and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": run.provenance,
        "end_to_end": run.e2e,
        "per_layer": run.layers if args.trace else None,
        "failures": checks.messages,
        **result,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        run.tracer.write(out / f"{stem}.spans.jsonl")

    prov = run.provenance
    print(f"# {prov['version']}, Python {prov['python']}, nproc {prov['nproc']}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for i, facts in enumerate(prov["contexts"]):
        print(f"# context {i}: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for key, digest in prov["query_digests"].items():
        print(f"# query digest {key}: {digest}")
    print(f"# passes: {prov.get('passes')}, latency samples: {prov.get('latency_samples')}")
    if "call_p90_ms" in prov:
        print(f"# call_p90_ms {prov['call_p90_ms']:.6g} ms")
    for message in checks.messages:
        print(f"# FAILED: {message}")
    print(f"fail_ratio {run.layers['fail_ratio']:.6g} ({checks.failed} of {checks.attempted})")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
