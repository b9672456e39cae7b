"""Machine-readable verification reports (schema 1).

Rational scalars are serialised as exact strings "p/q"; floats only appear
from the float domain.  Serialisation is canonical (sorted keys, fixed separators)
so identical runs produce byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

SCHEMA = 1


def encode_value(v: Any) -> Any:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    if hasattr(v, "chart") and hasattr(v, "values"):  # Point
        return {"chart": v.chart, "values": [encode_value(x) for x in v.values]}
    return v


def build_report(op: str, config: dict, records: list, max_abs_residual,
                 domain, tol: float = 1e-9) -> dict:
    """The report; the residuals' domain (``jetcore.EXACT`` or ``FLOAT``) judges the largest."""
    exact_zero = domain.exact and max_abs_residual == 0
    verdict = "pass" if domain.verdict(max_abs_residual, tol) else "fail"
    return {
        "schema": SCHEMA,
        "op": op,
        "config": encode_value(config),
        "records": encode_value(records),
        "max_abs_residual": encode_value(max_abs_residual),
        "exact_zero": exact_zero,
        "verdict": verdict,
    }


def dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
