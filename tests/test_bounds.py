import random
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from unittest.mock import patch

import pytest
from mpmath import mp, mpf

from dioph import bounds as bd
from dioph.numerics import (
    DEFAULT_TOL,
    InvalidPoint,
    PrecisionReal,
    at_precision,
    e_value,
    exp,
    scan_brackets,
    sqrt,
)

PR = PrecisionReal


def as_fraction(x: PR) -> Fraction:
    """The exact binary value of x."""
    sign, man, exp, _ = x.raw
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def term_sum_epsilon(n: int, alpha: str, beta: str, prec: int = 512) -> mpf:
    """Independent oracle: the defect by literal term-by-term summation."""
    ctx = mp.clone()
    ctx.prec = prec
    a, b = ctx.mpf(alpha), ctx.mpf(beta)
    return 1 - sum(a**j / b ** (j - 1) for j in range(1, n + 1))


def displayed_bounds(n: int, alpha: str, beta: str, prec: int = 512):
    """Independent oracle: the four dual bounds re-evaluated verbatim."""
    ctx = mp.clone()
    ctx.prec = prec
    a, b = ctx.mpf(alpha), ctx.mpf(beta)
    eps = 1 - sum(a**j / b ** (j - 1) for j in range(1, n + 1))
    phi = 4 * eps * b ** (n - 1) / a**n
    rho = 4 * eps * b**2 / a**2
    S = sum((a / b + phi) ** (1 - j) for j in range(1, n + 1))
    T = sum((a / b + phi) ** j for j in range(1, n))
    what_lower = (b - rho) * S / ((a / b - phi) ** -n + (b - rho) * (1 - S))
    what_upper = (b - rho) ** -1 * (a / b - phi) ** -n
    w_lower = (rho**2 - b**2 - (b + rho) ** 2 * T) / (rho - b + (b + rho) ** 2 * T)
    w_upper = (b - rho) ** -1 * (a / b - phi) ** (-n - 1)
    return what_lower, what_upper, w_lower, w_upper


def close(x: PR, ref, rel="1e-30") -> bool:
    ref = PR(ref) if not isinstance(ref, PR) else ref
    scale = abs(ref) if abs(ref) > 1 else PR(1)
    return abs(x - ref) <= PR(rel) * scale


class TestMmDefect:
    def test_dirichlet_point_n3(self):
        third = PR(1) / 3
        ctx = bd.mm_defect(3, third, third)
        assert abs(ctx.epsilon) < PR("1e-70")
        assert abs(ctx.phi) < PR("1e-60") and abs(ctx.rho) < PR("1e-60")
        assert ctx.threshold == 0  # min(alpha, beta - alpha) = 0

    def test_half_one_example(self):
        ctx = bd.mm_defect(2, "0.5", 1)
        assert ctx.epsilon == PR(1) / 4
        assert ctx.threshold == PR(1) / 64

    def test_term_sum_oracle_512(self):
        ctx = bd.mm_defect(4, "0.370635", "0.5", precision_bits=256)
        oracle = term_sum_epsilon(4, "0.370635", "0.5")
        assert abs(float(ctx.epsilon) - float(oracle)) < 1e-60
        # recomputable from (n, alpha, beta): doubling precision agrees
        ctx2 = bd.mm_defect(4, "0.370635", "0.5", precision_bits=512)
        assert abs(ctx.epsilon - ctx2.epsilon) < PR("1e-70")

    def test_infinite_beta_reduces_to_one_minus_alpha(self):
        ctx = bd.mm_defect(3, "0.4", float("inf"))
        assert ctx.epsilon == PR(1) - PR("0.4")
        assert ctx.threshold == 0
        assert not ctx.phi.is_finite and not ctx.rho.is_finite
        assert ctx.S == 1 and not ctx.T.is_finite
        with pytest.raises(bd.DomainError):
            bd.dual_bounds(ctx)

    def test_domain_errors(self):
        with pytest.raises(bd.DomainError):
            bd.mm_defect(3, 0, "0.5")
        with pytest.raises(bd.DomainError):
            bd.mm_defect(3, "0.6", "0.5")
        with pytest.raises(bd.DomainError):
            bd.mm_defect(0, "0.5", "0.5")

    def test_derived_quantity_formulas(self):
        # S and T match their defining sums at a generic valid point
        ctx = bd.mm_defect(4, "0.3706", "0.5")
        z = ctx.alpha / ctx.beta + ctx.phi
        S = sum((z ** (1 - j) for j in range(2, 5)), PR(1))
        T = sum((z**j for j in range(2, 4)), z)
        assert close(ctx.S, S) and close(ctx.T, T)

    def test_hypothesis_check_below_eight_bits(self):
        # the threshold's round-off guard is at_precision(0, p) = 4 at 6 bits;
        # epsilon = -8 at (10, 0.9, 0.9) is beyond the zero test and reaches it
        assert isinstance(bd.mm_defect(2, "0.3", "0.5", 6).hypothesis_satisfied(), bool)
        assert bd.mm_defect(10, "0.9", "0.9", 6).hypothesis_satisfied() is False


class TestDualBounds:
    def test_dirichlet_collapse_exact(self):
        fifth = PR(1) / 5
        ds = bd.dual_bounds(bd.mm_defect(5, fifth, fifth))
        for v in (ds.what_lower, ds.what_upper, ds.w_lower, ds.w_upper):
            assert abs(v - 5) < PR("1e-20")

    def test_golden_ratio_collapse(self):
        alpha = (sqrt(PR(5)) - 1) / 2
        ds = bd.dual_bounds(bd.mm_defect(2, alpha, 1))
        inv2 = 1 / alpha**2
        inv3 = 1 / alpha**3
        assert close(ds.what_lower, inv2, "1e-50") and close(ds.what_upper, inv2, "1e-50")
        assert close(ds.w_lower, inv3, "1e-50") and close(ds.w_upper, inv3, "1e-50")
        assert close(inv2, (3 + sqrt(PR(5))) / 2, "1e-70")

    def test_formula_reevaluation_oracle(self):
        ds = bd.dual_bounds(bd.mm_defect(4, "0.3706", "0.5", precision_bits=512))
        oracle = displayed_bounds(4, "0.3706", "0.5")
        got = (ds.what_lower, ds.what_upper, ds.w_lower, ds.w_upper)
        for g, o in zip(got, oracle):
            assert close(g, PR(o, 512), "1e-100")

    def test_hypothesis_violation_at_037(self):
        # epsilon(4, 0.37, 0.5) = 3.66e-3 exceeds the 2.44e-3 threshold
        with pytest.raises(bd.HypothesisViolated):
            bd.dual_bounds(bd.mm_defect(4, "0.37", "0.5"))

    def test_negative_defect_rejected(self):
        with pytest.raises(bd.HypothesisViolated):
            bd.dual_bounds(bd.mm_defect(4, "0.38", "0.5"))

    def test_uniform_pair_ordered_under_hypothesis(self):
        ds = bd.dual_bounds(bd.mm_defect(4, "0.3706", "0.5"))
        assert ds.what_lower <= ds.what_upper

    def test_ordinary_pair_ordering_fails_off_the_regular_graph(self):
        # The displayed ordinary-exponent lower bound inflates with the
        # defect and overtakes its upper bound for small positive epsilon;
        # the pair is consistent only on the regular graph (see the
        # decisions ledger).  Keep the counterexample visible.
        ds = bd.dual_bounds(bd.mm_defect(4, "0.3706", "0.5"))
        assert ds.w_lower > ds.w_upper


class TestRegularGraphDuals:
    def test_dirichlet(self):
        fifth = PR(1) / 5
        lo, hi = bd.regular_graph_duals(5, fifth, fifth)
        assert abs(lo - 5) < PR("1e-70") and abs(hi - 5) < PR("1e-70")

    def test_golden(self):
        alpha = (sqrt(PR(5)) - 1) / 2
        lo, hi = bd.regular_graph_duals(2, alpha, 1)
        assert close(lo, (3 + sqrt(PR(5))) / 2, "1e-70")
        assert close(hi, 1 / alpha**3, "1e-70")

    def test_cross_check_with_dual_bounds(self):
        alpha = PR("0.3706")
        beta = bd.beta_for_equality(4, alpha)
        lo, hi = bd.regular_graph_duals(4, alpha, beta)
        ds = bd.dual_bounds(bd.mm_defect(4, alpha, beta))
        assert close(ds.what_lower, lo, "1e-10") and close(ds.what_upper, lo, "1e-10")
        assert close(ds.w_lower, hi, "1e-10") and close(ds.w_upper, hi, "1e-10")

    def test_rejects_off_graph_pairs(self):
        with pytest.raises(bd.NotRegularGraph):
            bd.regular_graph_duals(4, "0.37", "0.5")

    def test_accepts_beta0_solved_at_64_bits(self):
        # the corollary suite's first draw: |epsilon| = 3.8e-19, above 1e-20
        # but within the 64-bit zero bound at_precision(1e-20, 64) = 2^-56
        alpha = PR(0.8401017289768682, 64)
        beta = bd.beta_for_equality(2, alpha, 64)
        assert PR("1e-20") < abs(bd.mm_defect(2, alpha, beta).epsilon) <= at_precision(0, 64)
        bd.regular_graph_duals(2, alpha, beta)

    @pytest.mark.parametrize("bits", [64, 96])
    def test_rejects_off_graph_pairs_below_256_bits(self, bits):
        # the zero test coarsens with the precision, to 2^-56 at 64 bits
        with pytest.raises(bd.NotRegularGraph, match=f"not zero at {bits} bits"):
            bd.regular_graph_duals(4, "0.37", "0.5", bits)

    def test_accepts_beta0_solved_at_96_bits(self):
        # the draws of the corollary suite; beta0 solved to the 96-bit
        # default 2^-88 leaves a defect the zero test must accept
        rng = random.Random(20260809)
        for _ in range(200):
            n = rng.randint(2, 8)
            alpha = PR(rng.uniform(1.0 / n, 0.9), 96)
            bd.regular_graph_duals(n, alpha, bd.beta_for_equality(n, alpha, 96))


class TestBetaForEquality:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_alpha_at_dirichlet_returns_alpha(self, n):
        alpha = PR(1) / n
        assert bd.beta_for_equality(n, alpha) == alpha

    def test_n1_has_empty_admissible_range(self):
        # for n = 1 the range 1/n <= alpha < 1 is empty
        with pytest.raises(bd.DomainError):
            bd.beta_for_equality(1, 1)

    def test_golden(self):
        alpha = (sqrt(PR(5)) - 1) / 2
        assert abs(bd.beta_for_equality(2, alpha) - 1) < PR("1e-29")

    def test_residual_certified(self):
        beta = bd.beta_for_equality(4, "0.3")
        resid = abs(bd.mm_defect(4, "0.3", beta).epsilon)
        assert resid < PR("1e-25")

    def test_dyadic_exact_pair(self):
        # alpha = 3/4 forces beta = 9/4 exactly for n = 2
        beta = bd.beta_for_equality(2, PR(3) / 4)
        assert abs(beta - PR(9) / 4) < PR("1e-29")

    def test_beta_increases_with_alpha(self):
        betas = [bd.beta_for_equality(3, PR(a)) for a in ("0.4", "0.5", "0.6", "0.7")]
        assert all(a < b for a, b in zip(betas, betas[1:]))

    def test_domain_errors(self):
        with pytest.raises(bd.DomainError):
            bd.beta_for_equality(4, "0.2")  # below 1/n
        with pytest.raises(bd.DomainError):
            bd.beta_for_equality(4, 1)


TAU_TRUE = {
    2: "0.618033988749894848204586834365638117720",
    4: "0.370635455283001026853393177923219194367",
    6: "0.268184650553357566746095782547349950038",
    20: "0.0928033855752971438834988053978306510297",
}


class TestTau:
    @pytest.mark.parametrize("n", [2, 4, 6, 20])
    def test_frozen_digits(self, n):
        # frozen from a 512-bit tol=1e-60 run, cross-checked at 256 bits
        assert close(bd.tau(n), TAU_TRUE[n], "1e-28")

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 20, 100])
    def test_interval_and_residual(self, n):
        t = bd.tau(n)
        assert PR(2) / (n + 2) < t < PR(2) / n
        half = PR(n) / 2
        resid = abs((half * t) ** n * t - (half + 1) * t + 1)
        assert resid < PR("1e-20")

    def test_zero_defect_characterization(self):
        # tau_n is exactly the alpha with zero defect at beta = 2/n
        t = bd.tau(6)
        eps = bd.mm_defect(6, t, PR(2) / 6).epsilon
        assert abs(eps) < PR("1e-28")

    def test_displayed_n6_digits_are_not_a_root(self):
        # the commonly displayed 0.268186 is off the defining polynomial by
        # ~2.8e-6 in residual, six orders of magnitude beyond the certified
        # root's neighborhood; the certified root is 0.2681846505...
        half = PR(3)
        p = lambda t: (half * t) ** 6 * t - (half + 1) * t + 1
        assert abs(p(PR("0.268186"))) > PR("1e-6")
        assert abs(p(bd.tau(6))) < PR("1e-20")
        # consistency: the displayed sigma_6 digits sit just below the
        # certified tau_6, as they must
        assert PR("0.268183") < bd.sigma(6) < bd.tau(6) < PR("0.268186")

    def test_precision_doubling_stability(self):
        t256 = bd.tau(6, 256)
        t512 = bd.tau(6, 512)
        assert abs(t256 - t512) < PR("1e-29")

    def test_domain_errors(self):
        for bad in (3, 0, -2, 1):
            with pytest.raises(bd.DomainError):
                bd.tau(bad)


class TestLaurentOddBound:
    def test_values(self):
        assert bd.laurent_odd_bound(3) == PR(1) / 2
        assert bd.laurent_odd_bound(5) == PR(1) / 3
        assert bd.laurent_odd_bound(7) == PR(1) / 4

    def test_domain(self):
        with pytest.raises(bd.DomainError):
            bd.laurent_odd_bound(4)
        with pytest.raises(bd.DomainError):
            bd.laurent_odd_bound(1)


class TestMu:
    def test_analytic_w2_is_golden_squared(self):
        w, m = bd.mu(2)
        golden_sq = ((1 + sqrt(PR(5))) / 2) ** 2
        assert abs(w - golden_sq) < PR("1e-29")
        assert m == w

    def test_analytic_w3_is_three_plus_sqrt2(self):
        w, _ = bd.mu(3)
        assert abs(w - (3 + sqrt(PR(2)))) < PR("1e-29")

    @pytest.mark.parametrize("n", [10, 15, 20, 30])
    def test_cap_for_large_n(self, n):
        w, m = bd.mu(n)
        assert m == PR(2 * n - 2)
        assert w < m

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_aux_root_dominates_small_n(self, n):
        w, m = bd.mu(n)
        assert m == w and w > PR(2 * n - 2)

    def test_residual(self):
        w, _ = bd.mu(4)
        d = w - 4
        resid = abs(3 * w / d - w + 1 - (3 / d) ** 4)
        assert resid < PR("1e-25")

    def test_root_inside_open_interval(self):
        for n in (2, 5, 17):
            w, _ = bd.mu(n)
            assert PR(n) < w < PR(2 * n - 1)

    @pytest.mark.parametrize("n", list(range(2, 31)) + [200])
    def test_exact_sign_change_of_the_source_equation(self, n):
        # F(w) = (n-1)w/(w-n) - w + 1 - ((n-1)/(w-n))^n in exact rationals
        def F(w):
            d = w - n
            return (n - 1) * w / d - w + 1 - Fraction(n - 1) ** n / d**n

        w = as_fraction(bd.mu(n).w_aux)
        off = Fraction(1, 10**25)
        assert F(w * (1 - off)) < 0 < F(w * (1 + off))

    def test_one_find_root_call(self):
        with patch.object(bd, "find_root", wraps=bd.find_root) as spy:
            bd.mu(12)
        assert spy.call_count == 1


SIGMA_TRUE = {
    4: "0.3706295114600989549892190475523297514071",
    6: "0.2681832291255059909606718906031848875819",
}


class TestSigma:
    @pytest.mark.parametrize("n", [4, 6])
    def test_frozen_digits(self, n):
        # frozen from a 512-bit tol=1e-60 run with residual < 1e-56
        assert close(bd.sigma(n), SIGMA_TRUE[n], "1e-28")

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_below_tau_above_left_endpoint(self, n):
        s = bd.sigma(n)
        assert PR(2) / (n + 2) < s < bd.tau(n)

    def test_residual_certified(self):
        n = 4
        s = bd.sigma(n)
        mu_n = bd.mu(n).mu
        w = bd._what_lower_value(bd.mm_defect(n, s, PR(2) / n))
        assert abs(w - mu_n) < PR("1e-20")

    @pytest.mark.parametrize("n", [100, 200])
    def test_large_n_root_certified_at_512_bits(self, n):
        s = bd.sigma(n)
        assert PR(2) / (n + 2) < s < bd.tau(n)
        mu_n = bd.mu(n, 512).mu
        beta = PR(2, 512) / n

        def f(a):
            return bd._what_lower_value(bd.mm_defect(n, a, beta, 512)) - mu_n

        off = PR("1e-25", 512)
        s = PR(s, 512)
        assert f(s * (1 - off)).sign() < 0 < f(s * (1 + off)).sign()

    def test_tol_too_coarse_to_separate_from_tau(self):
        # solved to tol 1e-3, tau(4) comes out 8e-5 relative below the root,
        # which puts it under sigma(4)
        with pytest.raises(ValueError, match="too coarse"):
            bd.sigma(4, tol="1e-3")

    def test_scan_example_bracket_near_sigma4(self):
        # scanning the implicit-equation defect over (0, 1) locates sigma_4
        n = 4
        mu_n = bd.mu(n).mu
        beta = PR(2) / n

        def f(a):
            if a.sign() <= 0:
                raise InvalidPoint("alpha must be positive")
            return bd._what_lower_value(bd.mm_defect(n, a, beta)) - mu_n

        found = scan_brackets(f, PR(1) / 1000, bd.tau(4), 1000)
        assert found
        lo, hi = found[-1].lo, found[-1].hi
        assert lo < PR("0.37063") < hi

    def test_domain_errors(self):
        for bad in (2, 3, 5):
            with pytest.raises(bd.DomainError):
                bd.sigma(bad)


class TestTheta:
    def test_value_and_residual(self):
        th = bd.theta()
        assert abs(th - PR("1.7564")) < PR("5e-5")
        resid = abs(exp(th) / th - 2 * sqrt(e_value(256)))
        assert resid < PR("1e-25")

    def test_bracket_endpoints(self):
        target = 2 * sqrt(e_value(256))
        assert exp(PR(1)) < target < exp(PR(3)) / 3

    def test_frozen_digits(self):
        assert close(bd.theta(), "1.756431208626169676982737616609216326916", "1e-28")


RG_STATED = {4: "0.3588", 6: "0.2540", 8: "0.1968"}
RG_TRUE = {
    4: "0.358790306932116179428323993621",
    6: "0.253991758307094143136547619375",
    8: "0.196783885836890899050576168684",
}


class TestRegularGraphLambdaBound:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_below_stated_truncation(self, n):
        v = bd.regular_graph_lambda_bound(n)
        stated = PR(RG_STATED[n])
        assert v < stated
        assert stated - v < PR("5e-5")
        assert close(v, RG_TRUE[n], "1e-28")

    def test_n8_below_left_interval_endpoint(self):
        assert bd.regular_graph_lambda_bound(8) < PR("0.2")

    def test_defining_equation_residual(self):
        # the closed form against the nested definition: beta_for_equality
        # is the oracle for the zero-defect partner of the returned alpha
        for n in (4, 6, 8, 10, 12, 200):
            a = bd.regular_graph_lambda_bound(n)
            b0 = bd.beta_for_equality(n, a, tol="1e-60")
            resid = abs(b0 ** (n - 1) / a**n - bd.mu(n).mu)
            assert resid < PR("1e-20"), n

    def test_domain(self):
        with pytest.raises(bd.DomainError):
            bd.regular_graph_lambda_bound(3)


class TestChiEstimate:
    def test_small_n_values(self):
        assert close(bd.chi_estimate(20), "2.8786458", "1e-6")
        assert close(bd.chi_estimate(4), "2.0698327", "1e-6")

    def test_increasing_toward_limit(self):
        vals = [bd.chi_estimate(n) for n in (100, 200, 400)]
        assert vals[0] < vals[1] < vals[2] < PR("3.1873")


class TestTransferDual:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_zero_slope_gives_n(self, n):
        assert abs(bd.transfer_dual(n, 0, "liminf") - n) < PR("1e-70")

    def test_ceiling_gives_infinity(self):
        assert not bd.transfer_dual(3, PR(1) / 3, "liminf").is_finite

    def test_direct_arithmetic(self):
        v = bd.transfer_dual(2, "-0.1", "limsup")
        assert close(v, "1.5", "1e-70")

    def test_domain_errors(self):
        with pytest.raises(bd.DomainError):
            bd.transfer_dual(2, "-1", "liminf")
        with pytest.raises(bd.DomainError):
            bd.transfer_dual(2, "0.6", "liminf")
        with pytest.raises(bd.DomainError):
            bd.transfer_dual(2, 0, "limSup")

    @pytest.mark.parametrize("w", ["0.5", "1", "3", "17.25"])
    def test_roundtrip_identity(self, w):
        for n in (1, 2, 5):
            psi = bd.dual_to_psi(n, PR(w))
            back = bd.transfer_dual(n, psi, "limsup")
            assert abs(back - PR(w)) < PR("1e-25")

    @pytest.mark.parametrize("psi", ["-0.9", "-0.1", "0", "0.05"])
    def test_roundtrip_from_psi(self, psi):
        n = 3
        if PR(psi) > PR(1) / n:
            return
        w = bd.transfer_dual(n, psi, "liminf")
        assert abs(bd.dual_to_psi(n, w) - PR(psi)) < PR("1e-25")


class TestClassicalLowDim:
    def test_dirichlet_point_collapses_to_two(self):
        half = PR(1) / 2
        cl = bd.classical_low_dim(half, half)
        assert cl.jarnik == 2 and cl.laurent_lower == 2 and cl.laurent_upper == 2

    def test_golden_identity(self):
        alpha = (sqrt(PR(5)) - 1) / 2
        cl = bd.classical_low_dim(alpha, 1)
        assert close(cl.jarnik, 1 / alpha**2, "1e-70")

    def test_substitution_oracle(self):
        cl = bd.classical_low_dim("0.55", "0.9", precision_bits=512)
        ctx = mp.clone()
        ctx.prec = 512
        lh, la = ctx.mpf("0.55"), ctx.mpf("0.9")
        assert close(cl.jarnik, PR(1 / (1 - lh), 512), "1e-100")
        assert close(cl.laurent_lower, PR((la + lh) / (1 - lh), 512), "1e-100")
        assert close(cl.laurent_upper, PR(la / (lh - la + la * lh), 512), "1e-100")

    def test_infinite_upper_when_denominator_nonpositive(self):
        cl = bd.classical_low_dim("0.55", "1.5")
        assert not cl.laurent_upper.is_finite

    def test_domain(self):
        with pytest.raises(bd.DomainError):
            bd.classical_low_dim("0.4", "0.9")
        with pytest.raises(bd.DomainError):
            bd.classical_low_dim("0.9", "0.8")
        with pytest.raises(bd.DomainError):
            bd.classical_low_dim(1, 2)


class TestLefthsSolve:
    def test_n1_identity_root(self):
        assert abs(bd.lefths_solve(1, 2) - 2) < PR("1e-29")

    def test_branch_point_at_omega_one_over_n(self):
        assert bd.lefths_solve(3, PR(1) / 3) == 3

    def test_analytic_golden_cube(self):
        # (1+t)(1+1/t)^2 = 8 has its increasing-branch root at golden^3
        root = bd.lefths_solve(2, 1)
        golden_cubed = ((1 + sqrt(PR(5))) / 2) ** 3
        assert abs(root - golden_cubed) < PR("1e-29")

    def test_residual_and_branch(self):
        root = bd.lefths_solve(4, "0.5")
        assert root >= 4
        rhs = (1 + 1 / PR("0.5")) * (1 + PR("0.5")) ** 4
        resid = abs((1 + root) * (1 + 1 / root) ** 4 - rhs)
        assert resid < PR("1e-25")

    @pytest.mark.parametrize("n", [50, 200])
    def test_asymptotic_doubling_scale(self, n):
        root = bd.lefths_solve(n, bd.theta() / n)
        assert abs(root / n - 2) < PR("0.02")

    def test_domain(self):
        with pytest.raises(bd.DomainError):
            bd.lefths_solve(2, 0)


class TestIntegerApproxExponents:
    def test_frozen_values(self):
        u4 = bd.integer_approx_exponents(4)
        u6 = bd.integer_approx_exponents(6)
        assert close(u4[0], "3.6981121823259276417", "1e-18")
        assert close(u4[1], "3.2773450963267076934", "1e-18")
        assert close(u6[0], "4.7287939415928727641", "1e-18")
        assert close(u6[1], "4.4160176444900615402", "1e-18")

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_conditional_beats_unconditional_scale(self, n):
        _, cond = bd.integer_approx_exponents(n)
        assert cond > PR(n) / 2 + 1  # Theta < 2


class TestConstantsReport:
    def test_even_row(self):
        rep = bd.constants_report(4)
        assert rep.tau_n is not None and rep.sigma_n is not None
        assert rep.laurent_bound is None
        assert rep.mu_n == rep.w_n_aux

    def test_odd_row(self):
        rep = bd.constants_report(5)
        assert rep.tau_n is None and rep.sigma_n is None
        assert rep.laurent_bound == PR(1) / 3
        assert rep.w_n_aux is not None

    def test_n2_row(self):
        rep = bd.constants_report(2)
        assert rep.tau_n is not None and rep.sigma_n is None
        assert rep.regular_graph_bound is None

    @pytest.mark.parametrize("n", [4, 6])
    def test_mu_and_tau_solved_once(self, n, monkeypatch):
        calls = {"mu": 0, "tau": 0, "beta_for_equality": 0}
        for name in calls:
            original = getattr(bd, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(bd, name, counted)
        rep = bd.constants_report(n)
        assert calls == {"mu": 1, "tau": 1, "beta_for_equality": 0}
        assert rep.sigma_n is not None and rep.regular_graph_bound is not None


def report_values(rep: bd.ConstantsReport):
    return tuple(getattr(rep, f.name) for f in fields(rep) if isinstance(getattr(rep, f.name), PR))


# every public solver at one input, as the tuple of the values it returns
SOLVERS_AT = {
    "beta_for_equality": lambda bits: (bd.beta_for_equality(4, "0.3", bits),),
    "tau": lambda bits: (bd.tau(4, bits),),
    "mu": lambda bits: tuple(bd.mu(4, bits)),
    "sigma": lambda bits: (bd.sigma(4, bits),),
    "theta": lambda bits: (bd.theta(bits),),
    "regular_graph_lambda_bound": lambda bits: (bd.regular_graph_lambda_bound(4, bits),),
    "chi_estimate": lambda bits: (bd.chi_estimate(4, bits),),
    "lefths_solve": lambda bits: (bd.lefths_solve(50, "0.03125", bits),),
    "integer_approx_exponents": lambda bits: bd.integer_approx_exponents(4, bits),
    "constants_report": lambda bits: report_values(bd.constants_report(4, bits)),
}


@lru_cache(maxsize=None)
def solved_at(name: str, bits: int):
    return SOLVERS_AT[name](bits)


class TestDefaultTolAtEveryPrecision:
    @pytest.mark.parametrize("bits", [64, 72, 80, 96, 128])
    @pytest.mark.parametrize("name", sorted(SOLVERS_AT))
    def test_solver_agrees_with_256_bits(self, name, bits):
        # the default tol is at_precision(DEFAULT_TOL, bits); a fixed 1e-30
        # is below what bisection reaches under about 100 bits
        got, ref = solved_at(name, bits), solved_at(name, 256)
        bound = 1000 * at_precision(DEFAULT_TOL, bits)
        assert len(got) == len(ref) > 0
        for g, r in zip(got, ref):
            assert g.precision_bits == bits
            assert abs(g - r) <= bound * abs(r), (g, r)
