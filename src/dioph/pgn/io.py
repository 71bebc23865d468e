"""Deterministic CSV (RFC 4180) and JSON export of simulator results.

Exact integers are serialized as decimal strings to avoid consumer-side
overflow; reals are printed at ``format_real``'s 12 significant digits with
round-half-even.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, List, Sequence, TextIO

from ..numerics import format_real
from .analysis import ExponentEstimates, IntersectionRow, TheoremVReport
from .profile import ProfileSample
from .vectors import MinimalPointSequence

__all__ = [
    "write_sequence_csv",
    "write_profile_csv",
    "write_diagnostics_csv",
    "sequence_to_dicts",
    "profile_to_dicts",
    "estimates_to_dict",
    "theorem_report_to_dict",
    "dump_json",
]

_CSV_KW = dict(lineterminator="\r\n")


def write_sequence_csv(seq: MinimalPointSequence, out: TextIO) -> None:
    n = len(seq.points[0].y) if seq.points else 0
    w = csv.writer(out, **_CSV_KW)
    w.writerow(["x"] + [f"y_{i+1}" for i in range(n)] + ["Y", "log_x", "log_Y"])
    for v in seq.points:
        w.writerow(
            [str(v.x)]
            + [str(c) for c in v.y]
            + [format_real(v.Y), format_real(v.log_x), format_real(v.log_Y)]
        )


def write_profile_csv(samples: Sequence[ProfileSample], n: int, out: TextIO) -> None:
    w = csv.writer(out, **_CSV_KW)
    w.writerow(["q"] + [f"L_{j+1}" for j in range(n + 1)])
    for s in samples:
        w.writerow([format_real(s.q)] + [format_real(v) for v in s.L])


def write_diagnostics_csv(rows: Iterable[IntersectionRow], out: TextIO) -> None:
    w = csv.writer(out, **_CSV_KW)
    w.writerow(["k", "q", "r", "s", "u", "p", "q_order_ok", "u_order_ok"])
    for r in rows:
        w.writerow(
            [str(r.k)]
            + [format_real(v) for v in (r.q, r.r, r.s, r.u, r.p)]
            + [str(r.q_order_ok).lower(), str(r.u_order_ok).lower()]
        )


def sequence_to_dicts(seq: MinimalPointSequence) -> List[dict]:
    """JSON-ready rows; x and y as decimal strings to avoid overflow."""
    return [
        {
            "x": str(v.x),
            "y": [str(c) for c in v.y],
            "Y": format_real(v.Y),
            "log_x": format_real(v.log_x),
            "log_Y": format_real(v.log_Y),
        }
        for v in seq.points
    ]


def profile_to_dicts(samples: Sequence[ProfileSample]) -> List[dict]:
    return [
        {
            "q": format_real(s.q),
            "L": [format_real(v) for v in s.L],
            "witnesses": list(s.witnesses),
        }
        for s in samples
    ]


def estimates_to_dict(est: ExponentEstimates) -> dict:
    return {
        "lambda_est": format_real(est.lambda_est),
        "lambda_hat_est": format_real(est.lambda_hat_est),
        "psi_low_est": format_real(est.psi_low_est),
        "psi_high_est": format_real(est.psi_high_est),
        "w_est": format_real(est.w_est),
        "w_hat_est": format_real(est.w_hat_est),
        "window_q": [format_real(est.window[0]), format_real(est.window[1])],
        "window_log_x": [format_real(est.window_log_x[0]), format_real(est.window_log_x[1])],
    }


def theorem_report_to_dict(rep: TheoremVReport) -> dict:
    return {
        "alpha": format_real(rep.alpha),
        "beta": format_real(rep.beta),
        "epsilon": format_real(rep.epsilon),
        "threshold": format_real(rep.threshold),
        "hypothesis_ok": rep.hypothesis_ok,
        "fitted_C": format_real(rep.fitted_C),
        "prop1_margin": format_real(rep.prop1_margin),
        "prop2_margin": format_real(rep.prop2_margin),
        "independence_ok": rep.independence_ok,
        "record_ok": rep.record_ok,
    }


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
