import csv
import io
import json
from typing import NamedTuple

import pytest

from dioph import pgn
from dioph.numerics import PrecisionReal, golden_value, log as nlog

PR = PrecisionReal


def small_run():
    t = pgn.TargetPoint.veronese(golden_value(), 1)
    pool = pgn.enumerate_candidates(t, 100, widen=0)
    seq = pgn.minimal_points(pool)
    grid = pgn.build_q_grid(seq, 1, nlog(PR(100)), count=10)
    prof = pgn.profile(pool, grid, 1)
    return seq, prof


def test_sequence_csv_shape_and_exact_integers():
    seq, _ = small_run()
    buf = io.StringIO()
    pgn.write_sequence_csv(seq, buf)
    text = buf.getvalue()
    assert "\r\n" in text  # RFC 4180 line endings
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["x", "y_1", "Y", "log_x", "log_Y"]
    assert [r[0] for r in rows[1:]] == [str(v.x) for v in seq]
    # integers serialized as decimal strings, no float formatting
    assert all("." not in r[0] and "e" not in r[0] for r in rows[1:])


def test_profile_csv_shape():
    seq, prof = small_run()
    buf = io.StringIO()
    pgn.write_profile_csv(prof, 1, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["q", "L_1", "L_2"]
    assert len(rows) == len(prof) + 1


def test_diagnostics_csv():
    seq, _ = small_run()
    rows = pgn.intersection_diagnostics(seq, 1)
    buf = io.StringIO()
    pgn.write_diagnostics_csv(rows, buf)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    assert parsed[0] == ["k", "q", "r", "s", "u", "p", "q_order_ok", "u_order_ok"]
    assert len(parsed) == len(rows) + 1
    assert all(row[6] in ("true", "false") for row in parsed[1:])


def test_estimates_json_round_trips_as_strings():
    seq, prof = small_run()
    est = pgn.estimate_exponents(seq, prof, 1)
    d = pgn.estimates_to_dict(est)
    blob = pgn.dump_json(d)
    back = json.loads(blob)
    assert isinstance(back["lambda_est"], str)
    assert float(back["lambda_est"]) > 0.5


def test_theorem_report_dict():
    seq, _ = small_run()
    rep = pgn.check_theorem_v(seq, 1, "0.99", "1.01")
    d = pgn.theorem_report_to_dict(rep)
    assert set(d) == {
        "alpha", "beta", "epsilon", "threshold", "hypothesis_ok",
        "fitted_C", "prop1_margin", "prop2_margin", "independence_ok", "record_ok",
    }
    assert isinstance(d["independence_ok"], bool)


def test_dump_json_deterministic():
    d = {"b": "2", "a": "1"}
    assert pgn.dump_json(d) == '{"a":"1","b":"2"}'
    assert pgn.dump_json(d) == pgn.dump_json(dict(sorted(d.items())))


def test_sequence_and_profile_json_dicts():
    seq, prof = small_run()
    rows = pgn.sequence_to_dicts(seq)
    assert rows[0]["x"] == "1" and isinstance(rows[0]["y"][0], str)
    assert len(rows) == len(seq)
    prows = pgn.profile_to_dicts(prof)
    assert len(prows) == len(prof)
    assert len(prows[0]["L"]) == 2 and len(prows[0]["witnesses"]) == 2
    json.loads(pgn.dump_json({"sequence": rows, "profile": prows}))


class _Record(NamedTuple):
    n: int
    x: PrecisionReal
    pair: tuple
    flag: bool
    label: str
    missing: object


def test_record_to_dict_renders_every_field_by_one_rule():
    rec = _Record(3, PR(2) / 3, (PR(1) / 7, 5), True, "e", None)
    d = pgn.io.record_to_dict(rec)
    assert list(d) == list(_Record._fields)  # field order is output order
    assert d == {
        "n": 3, "x": "0.666666666667", "pair": ["0.142857142857", 5],
        "flag": True, "label": "e", "missing": None,
    }
    renamed = pgn.io.record_to_dict(rec, ("a", "b", "c", "d", "e", "f"))
    assert list(renamed) == ["a", "b", "c", "d", "e", "f"]
    assert list(renamed.values()) == list(d.values())
    with pytest.raises(ValueError):  # a key tuple must name every field
        pgn.io.record_to_dict(rec, ("a", "b"))


def test_bounds_keys_name_every_constants_report_field():
    from dioph.bounds import ConstantsReport
    from dioph.cli import BOUNDS_KEYS

    assert len(BOUNDS_KEYS) == len(ConstantsReport._fields)
    assert BOUNDS_KEYS[0] == ConstantsReport._fields[0] == "n"
