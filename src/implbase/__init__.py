"""Implication bases over formal contexts, with instrumented closure
algorithms and a deterministic benchmark harness.

The public surface named here covers the usual workflow: load or generate a
context, bring it to standard form, build the three bases (unit basis with
all minimal premises, ordered-direct basis with a binary prefix,
minimum-cardinality basis), and close attribute sets with any of the six
instrumented algorithms.

Each name loads its module on first access, so importing the package loads
no submodule, and a command pays only for the modules it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Each public name and the module that defines it, in ``__all__`` order.
_HOMES = {
    "AttributeSet": "sets",
    "Basis": "sets",
    "BasisKind": "sets",
    "Implication": "sets",
    "Universe": "sets",
    "merge_same_lhs": "sets",
    "parse_basis": "sets",
    "parse_implication": "sets",
    "read_basis": "sets",
    "render_basis": "sets",
    "unit_expand": "sets",
    "Context": "context",
    "clarify": "context",
    "gen_synthetic": "context",
    "is_clarified": "context",
    "is_reduced": "context",
    "is_standard": "context",
    "parse_cxt": "context",
    "read_cxt": "context",
    "reduce": "context",
    "render_cxt": "context",
    "require_standard": "context",
    "ClosureResult": "closure",
    "Metrics": "closure",
    "binary_closure": "closure",
    "closure_classic": "closure",
    "closure_direct": "closure",
    "implies": "closure",
    "lin_closure": "closure",
    "lin_closure_direct": "closure",
    "oracle_closure": "closure",
    "pass_once": "closure",
    "wild_closure": "closure",
    "wild_closure_direct": "closure",
    "PseudoClosedWitness": "bases",
    "build_cdub": "bases",
    "build_dbasis": "bases",
    "build_dg": "bases",
    "check_equiv": "bases",
    "direct_witness": "bases",
    "enumerate_pseudo_closed": "bases",
    "ALGORITHMS": "closure",
    "CSV_HEADER": "bench",
    "METRIC_NAMES": "bench",
    "TABLE_COMBOS": "bench",
    "ComboReport": "bench",
    "RatioBucket": "bench",
    "WorkloadSpec": "bench",
    "default_combos": "bench",
    "normalize": "bench",
    "ranking": "bench",
    "read_reports_csv": "bench",
    "run_bench": "bench",
    "run_workload": "bench",
    "size_ratio_report": "bench",
    "write_reports_csv": "bench",
    "DegenerateContext": "errors",
    "EmptyLhs": "errors",
    "ImplbaseError": "errors",
    "ImplicationSyntaxError": "errors",
    "InvalidBasis": "errors",
    "InvalidCombo": "errors",
    "IoError": "errors",
    "MalformedCxt": "errors",
    "MalformedReport": "errors",
    "NotClarified": "errors",
    "NotStandardContext": "errors",
    "UniverseMismatch": "errors",
    "UnknownAttribute": "errors",
    "UnrenderableName": "errors",
    "WrongBasisKind": "errors",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str) -> object:
    """Import the module that defines ``name`` and keep the value here, so
    the next access is a plain attribute read."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
