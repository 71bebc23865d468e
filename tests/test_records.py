"""The result records: names, field order, repr and immutability.

Each record is built positionally from distinct values, so its repr and
attribute access show both its field names and their order.
"""

import copy
import pickle

import pytest

from dioph import bounds as bd
from dioph import pgn
from dioph.numerics import PrecisionReal as PR
from dioph.suites import CheckResult

# every result record with its field names, in order
FIELDS = {
    bd.BoundContext: ("n", "alpha", "beta", "epsilon", "threshold", "phi", "rho", "S", "T"),
    bd.DualBoundSet: ("what_lower", "what_upper", "w_lower", "w_upper"),
    bd.ConstantsReport: (
        "n", "tau_n", "sigma_n", "w_n_aux", "mu_n", "regular_graph_bound", "chi_estimate",
        "laurent_bound",
    ),
    bd.MuValue: ("w_aux", "mu"),
    bd.ClassicalN2: ("jarnik", "laurent_lower", "laurent_upper"),
    CheckResult: ("suite", "name", "ok", "detail"),
    pgn.TargetPoint: ("n", "coords", "source", "precision_bits"),
    pgn.ProfileSample: ("q", "L", "witnesses"),
    pgn.ExponentEstimates: (
        "lambda_est", "lambda_hat_est", "psi_low_est", "psi_high_est", "w_est", "w_hat_est",
        "window", "window_log_x",
    ),
    pgn.TheoremVReport: (
        "alpha", "beta", "epsilon", "threshold", "hypothesis_ok", "fitted_C", "prop1_margin",
        "prop2_margin", "independence_ok", "record_ok",
    ),
    pgn.IntersectionRow: ("k", "q", "r", "s", "u", "p", "q_order_ok", "u_order_ok"),
}


def sample(record):
    """Distinct positional values for record's fields; TargetPoint's coords
    are finite reals, as it requires."""
    values = [PR(i) for i in range(len(FIELDS[record]))]
    if record is pgn.TargetPoint:
        values[1] = (PR(1), PR(2))
    return tuple(values)


@pytest.mark.parametrize("record", FIELDS, ids=lambda r: r.__name__)
def test_fields_in_order(record):
    names, values = FIELDS[record], sample(record)
    rec = record(*values)
    assert all(getattr(rec, name) is v for name, v in zip(names, values))
    shown = ", ".join(f"{name}={v!r}" for name, v in zip(names, values))
    assert repr(rec) == f"{record.__name__}({shown})"
    assert record(**dict(zip(names, values))) == rec


@pytest.mark.parametrize("record", FIELDS, ids=lambda r: r.__name__)
def test_field_assignment_refused(record):
    rec = record(*sample(record))
    for name in FIELDS[record]:
        with pytest.raises(AttributeError):
            setattr(rec, name, PR(7))


def test_minimal_point_sequence_is_its_points():
    a, b, c = (pgn.ApproxVector(x, (x,), PR(1) / x, 64) for x in (1, 2, 3))
    seq = pgn.MinimalPointSequence((a, b, c))
    assert seq.points == (a, b, c)
    assert len(seq) == 3 and seq[1] is b and list(seq) == [a, b, c]
    assert seq.points[1:] == (b, c)
    assert seq == pgn.MinimalPointSequence((a, b, c)) != pgn.MinimalPointSequence((a, b))
    assert repr(seq) == f"MinimalPointSequence(points={(a, b, c)!r})"
    with pytest.raises(AttributeError):
        seq.points = (a,)


def test_target_point_coordinates_must_be_finite():
    with pytest.raises(ValueError, match="must be finite"):
        pgn.TargetPoint(2, (PR("nan"), PR(1)), "x", 64)


def test_target_point_replace_checks_coordinates():
    # the NamedTuple's own builders go through the same check
    t = pgn.TargetPoint.explicit(["0.5", "0.25"], 64)
    with pytest.raises(ValueError, match="must be finite"):
        t._replace(coords=(PR("inf"), PR(1)))
    with pytest.raises(ValueError, match="must be finite"):
        pgn.TargetPoint._make((2, (PR(1), PR("-inf")), "x", 64))


def test_records_holding_reals_copy_and_pickle():
    mu = bd.mu(4)
    assert copy.deepcopy(mu) == mu
    report = bd.constants_report(4, 64)
    assert pickle.loads(pickle.dumps(report)) == report

