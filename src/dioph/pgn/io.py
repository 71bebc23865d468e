"""Deterministic CSV (RFC 4180) and JSON export of result records.

Every result record is a ``NamedTuple`` whose field order is the output order,
rendered by one rule (``record_to_dict``): a real at ``format_real``'s 12
significant digits with round-half-even, a tuple item by item, and any other
value (int, bool, str, None) as it is.  ``sequence_to_dicts`` writes the
minimal points' exact integers as decimal strings, against JSON overflow.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, List, NamedTuple, Optional, Sequence, TextIO

from ..numerics import PrecisionReal, format_real
from .analysis import ExponentEstimates, IntersectionRow, TheoremVReport
from .profile import ProfileSample
from .vectors import MinimalPointSequence

__all__ = [
    "write_sequence_csv",
    "write_profile_csv",
    "write_diagnostics_csv",
    "record_to_dict",
    "sequence_to_dicts",
    "profile_to_dicts",
    "estimates_to_dict",
    "theorem_report_to_dict",
    "dump_json",
]


def _render(value):
    if isinstance(value, PrecisionReal):
        return format_real(value)
    if isinstance(value, tuple):
        return [_render(v) for v in value]
    return value


def _write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """RFC 4180 rows of values rendered by the one rule; a cell is its value's
    JSON text, a string without its quotes."""
    w = csv.writer(out, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow([c if isinstance(c, str) else json.dumps(c) for c in map(_render, row)])


def write_sequence_csv(seq: MinimalPointSequence, out: TextIO) -> None:
    n = len(seq.points[0].y) if seq.points else 0
    header = ["x", *(f"y_{i+1}" for i in range(n)), "Y", "log_x", "log_Y"]
    _write_csv(out, header, ((v.x, *v.y, v.Y, v.log_x, v.log_Y) for v in seq.points))


def write_profile_csv(samples: Sequence[ProfileSample], n: int, out: TextIO) -> None:
    _write_csv(out, ["q", *(f"L_{j+1}" for j in range(n + 1))], ((s.q, *s.L) for s in samples))


def write_diagnostics_csv(rows: Iterable[IntersectionRow], out: TextIO) -> None:
    _write_csv(out, IntersectionRow._fields, rows)


def record_to_dict(rec: NamedTuple, keys: Optional[Sequence[str]] = None) -> dict:
    """The record's fields in order, rendered by the one rule, named by keys if given."""
    return dict(zip(rec._fields if keys is None else keys, map(_render, rec), strict=True))


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
    return [record_to_dict(s) for s in samples]


def estimates_to_dict(est: ExponentEstimates) -> dict:
    d = record_to_dict(est)
    d["window_q"] = d.pop("window")  # the window's ends are q values
    return d


def theorem_report_to_dict(rep: TheoremVReport) -> dict:
    return record_to_dict(rep)


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
