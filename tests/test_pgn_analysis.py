import pytest

from dioph import bounds as bd
from dioph import pgn
from dioph.numerics import PrecisionReal, e_value, golden_value, liouville_value, log as nlog

from conftest import moment_vector, pruned_profile, synthetic_sequence

PR = PrecisionReal


def golden_run(x_max=10000, grid_count=200):
    t = pgn.TargetPoint.veronese(golden_value(), 1)
    pool = pgn.enumerate_candidates(t, x_max, widen=0)
    seq = pgn.minimal_points(pool)
    grid = pgn.build_q_grid(seq, 1, nlog(PR(x_max)), count=grid_count)
    prof = pruned_profile(pool, grid, 1)
    return seq, prof


class TestEstimateExponents:
    def test_golden_both_exponents_near_one(self):
        seq, prof = golden_run()
        est = pgn.estimate_exponents(seq, prof, 1)
        assert abs(est.lambda_est - 1) < PR("0.05")
        assert abs(est.lambda_hat_est - 1) < PR("0.05")
        assert est.lambda_hat_est <= est.lambda_est

    def test_transfer_consistency_exact(self):
        seq, prof = golden_run(2000, 60)
        est = pgn.estimate_exponents(seq, prof, 1)
        assert est.w_hat_est == bd.transfer_dual(1, est.psi_low_est)
        assert est.w_est == bd.transfer_dual(1, est.psi_high_est)

    def test_psi_ordering_and_range(self):
        seq, prof = golden_run(2000, 60)
        est = pgn.estimate_exponents(seq, prof, 1)
        assert PR(-1) <= est.psi_low_est <= est.psi_high_est
        assert est.psi_high_est <= PR(1) + PR("1e-20")

    def test_liouville_ordinary_exponent_spikes(self):
        # the window straddles the jump to the 10^6 denominator, so the
        # log-log fit sees the factorial spike; the raw ratio ceiling is 3
        # the stream gives the records and profile of the 10^6-vector pool
        t = pgn.TargetPoint.veronese(liouville_value(192), 1, 192)
        kept, _ = pgn.undominated_candidates(t, 10**6, widen=0)
        seq = pgn.minimal_points(kept)
        grid = pgn.build_q_grid(seq, 1, nlog(PR(10**6, 192)), count=40)
        prof = pgn.profile(kept, grid, 1)
        est = pgn.estimate_exponents(seq, prof, 1)
        assert est.lambda_est > PR(5)
        assert abs(est.lambda_hat_est - 1) < PR("0.2")

    def test_window_fraction_validation(self):
        seq, prof = golden_run(200, 10)
        with pytest.raises(ValueError):
            pgn.estimate_exponents(seq, prof, 1, window_fraction=0.0)

    def test_insufficient_data(self):
        seq, prof = golden_run(200, 10)
        short = pgn.MinimalPointSequence(seq.points[:2])
        with pytest.raises(pgn.InsufficientData):
            pgn.estimate_exponents(short, prof, 1)
        # tiny window: fewer than 3 records inside
        with pytest.raises(pgn.InsufficientData):
            pgn.estimate_exponents(seq, prof, 1, window_fraction=0.01)

    def test_regular_graph_schedule_recovers_exponents(self):
        # log x grows geometrically, so a wide window is needed to catch
        # several records; the fit then recovers beta exactly
        alpha, beta = PR(3) / 4, PR(9) / 4
        seq = synthetic_sequence(2, alpha, beta, length=12)
        # profile is irrelevant for the record exponents; feed a stub
        stub = [
            pgn.ProfileSample(PR(i), (PR(0),) * 3, (0, 1, 2)) for i in (1, 2, 3, 4)
        ]
        est = pgn.estimate_exponents(seq, stub, 2, window_fraction=0.999)
        assert abs(est.lambda_est - beta) < PR("1e-60")
        assert abs(est.lambda_hat_est - alpha) < PR("1e-60")


class TestCheckTheoremV:
    def test_exact_sets_have_zero_margins(self, exact_pairs):
        for n, alpha, beta in exact_pairs:
            seq = synthetic_sequence(n, alpha, beta, length=10)
            rep = pgn.check_theorem_v(seq, n, alpha, beta)
            assert rep.epsilon == 0
            assert rep.prop1_margin == 0
            assert rep.prop2_margin == 0
            assert rep.fitted_C == 0
            assert rep.independence_ok and rep.record_ok and rep.hypothesis_ok

    def test_near_exact_sets_from_equality_solver(self):
        for n, a in ((3, "0.5"), (4, "0.3")):
            alpha = PR(a)
            beta = bd.beta_for_equality(n, alpha)
            seq = synthetic_sequence(n, alpha, beta, length=9)
            rep = pgn.check_theorem_v(seq, n, alpha, beta)
            assert rep.fitted_C < PR("1e-25")
            assert rep.independence_ok and rep.record_ok

    def test_dependent_window_flagged(self):
        alpha, beta = PR(3) / 4, PR(9) / 4
        seq = synthetic_sequence(2, alpha, beta, length=10)
        pts = list(seq.points)
        prev, cur = pts[3], pts[4]
        combo = tuple(a + b for a, b in zip(prev.ints(), cur.ints()))
        pts[5] = pgn.ApproxVector(
            combo[0], combo[1:], pts[5].Y, 256, log_x=pts[5].log_x, log_Y=pts[5].log_Y
        )
        rep = pgn.check_theorem_v(pgn.MinimalPointSequence(tuple(pts)), 2, alpha, beta)
        assert not rep.independence_ok
        assert rep.record_ok  # x stays increasing, Y stays decreasing

    def test_broken_record_flagged(self):
        alpha, beta = PR(3) / 4, PR(9) / 4
        seq = synthetic_sequence(2, alpha, beta, length=10)
        pts = list(seq.points)
        pts[4] = pgn.ApproxVector(
            pts[4].x, pts[4].y, pts[4].Y, 256,
            log_x=pts[4].log_x, log_Y=pts[3].log_Y + 1,
        )
        rep = pgn.check_theorem_v(pgn.MinimalPointSequence(tuple(pts)), 2, alpha, beta)
        assert not rep.record_ok
        assert rep.independence_ok

    def test_golden_data_small_fitted_constant(self):
        seq, _ = golden_run(2000, 10)
        rep = pgn.check_theorem_v(seq, 1, "0.999", "1.001")
        assert rep.record_ok and rep.independence_ok
        assert rep.fitted_C < PR(2)

    def test_short_sequence_rejected(self):
        alpha, beta = PR(3) / 4, PR(9) / 4
        seq = synthetic_sequence(2, alpha, beta, length=3)
        with pytest.raises(pgn.InsufficientData):
            pgn.check_theorem_v(seq, 2, alpha, beta)


class TestIntersectionDiagnostics:
    def test_exact_synthetic_orderings(self, exact_pairs):
        for n, alpha, beta in exact_pairs:
            seq = synthetic_sequence(n, alpha, beta, length=10)
            rows = pgn.intersection_diagnostics(seq, n)
            assert rows
            assert all(r.q_order_ok and r.u_order_ok for r in rows)

    def test_golden_orderings(self):
        seq, _ = golden_run(2000, 10)
        rows = pgn.intersection_diagnostics(seq, 1)
        assert all(r.u_order_ok for r in rows)
        assert all(r.q_order_ok for r in rows)

    def test_p_minus_u_identity(self):
        alpha, beta = PR(3) / 4, PR(9) / 4
        n = 2
        seq = synthetic_sequence(n, alpha, beta, length=10)
        c = PR(n) / (n + 1)
        for r in pgn.intersection_diagnostics(seq, n):
            j = r.k - 1
            expect = c * (seq[j + 1].log_x - seq[j].log_x)
            assert r.p - r.u == expect

    def test_formulas_match_definitions(self):
        seq, _ = golden_run(300, 10)
        n = 1
        c = PR(n) / (n + 1)
        rows = pgn.intersection_diagnostics(seq, n)
        for r in rows[:4]:
            j = r.k - 1
            assert r.q == c * (seq[j].log_x - seq[j].log_Y)
            assert r.r == c * (seq[j + 1].log_x - seq[j].log_Y)
            assert r.s == c * (seq[j + 1].log_x - seq[j - n + 1].log_Y)
            assert r.u == c * (seq[j].log_x - seq[j - n].log_Y)
            assert r.p == c * (seq[j + 1].log_x - seq[j - n].log_Y)

    def test_short_sequence_rejected(self):
        seq, _ = golden_run(30, 5)
        with pytest.raises(pgn.InsufficientData):
            pgn.intersection_diagnostics(pgn.MinimalPointSequence(seq.points[:2]), 1)

    def test_breakpoints_are_the_grid_points(self):
        # simulate veronese:e --n 2 --xmax 10000: the rows and the q grid take
        # every breakpoint from vector_min_point and crossing_q, so they agree
        # exactly, not only to the 12 printed digits
        n, x_max = 2, 10000
        kept, _ = pgn.undominated_candidates(pgn.TargetPoint.veronese(e_value(), n), x_max, widen=1)
        seq = pgn.minimal_points(kept)
        q_min, q_max = PR("0.5"), nlog(PR(x_max))
        grid = set(pgn.build_q_grid(seq, n, q_max, q_min=q_min))
        rows = pgn.intersection_diagnostics(seq, n)
        assert rows
        for row in rows:
            j = row.k - 1
            assert row.q == pgn.vector_min_point(seq[j], n)[0]
            assert row.r == pgn.crossing_q(seq[j], seq[j + 1], n)
            for point in (row.q, row.r):
                assert not q_min <= point <= q_max or point in grid


class TestMomentCarriers:
    def test_windows_independent(self):
        for n in (1, 2, 3):
            vecs = [moment_vector(3 ** (j + 1), n) for j in range(8)]
            for j in range(8 - n):
                assert pgn.int_rank(vecs[j : j + n + 1]) == n + 1
