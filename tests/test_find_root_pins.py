"""find_root takes the same points as before, solve by solve.

Each case pins the number of evaluations of f in every find_root call a
solver makes, and the sha256 of the raw mpf results of those calls.  Both
were recorded from the step rule of the one-secant find_root, with every
solver seeded by the float root of its own formula, so a change
to the step rule, to the seed, or to how any operation rounds, fails here
instead of passing silently.

The beta_0 inputs are the first 50 points of the dual_sweep benchmark
workload at seed 1 (perfbench/workloads.py ``dual_inputs``).
"""

import hashlib
import random
from fractions import Fraction
from unittest.mock import patch

import pytest

import dioph.bounds as bd
from dioph.numerics import find_root


def dual_points(seed: int, count: int) -> list:
    """(n, alpha) as ``dual_inputs`` draws them: n in 2..8, alpha in (1/n, 0.9)."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        n = rng.randint(2, 8)
        alpha = rng.uniform(1 / n, 0.9)
        if Fraction(1, n) < Fraction(alpha) < Fraction(9, 10):
            points.append((n, alpha))
    return points


def solves(run) -> tuple:
    """(evaluations of f per find_root call of run(), sha256 of the calls'
    raw results), the mantissas as plain ints whichever libmp backend runs."""
    counts, results = [], []

    def counted(f, *args, **kwargs):
        counts.append(0)

        def g(x):
            counts[-1] += 1
            return f(x)

        r = find_root(g, *args, **kwargs)
        results.append((tuple(int(v) for v in r.raw), r.precision_bits))
        return r

    with patch.object(bd, "find_root", counted):
        run()
    return counts, hashlib.sha256(repr(results).encode()).hexdigest()


def solve_beta0():
    for n, alpha in dual_points(1, 50):
        bd.beta_for_equality(n, alpha)


SOLVERS = {
    "tau": bd.tau,
    "mu": bd.mu,
    "sigma": bd.sigma,
    "regular_graph_lambda_bound": bd.regular_graph_lambda_bound,
}
EVEN_N = [4, 6, 8, 10, 12]

PINNED_BETA0 = (
    [
        5, 5, 5, 5, 5, 5, 3, 5, 5, 5, 5, 5, 5, 4, 3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 3, 5, 3, 5, 5,
        5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 3, 5, 5, 3, 5, 5, 5, 5
    ],
    "fcac89f0edc70fb395835278b219edc52b95aeb26d5caaec10b088eb3ec946d9",
)
PINNED = {
    ("mu", 64): (
        [4, 4, 4, 3, 4],
        "23bcb19b5e0dada29d1c61ce6e75aa3879f7152e50d0e8ed89b4e1639fb3a794",
    ),
    ("mu", 256): (
        [5, 5, 5, 5, 5],
        "37e7d14734e0a8249286eaf9ca0b3bbc0ed217f8a5fb106532233afe048a7582",
    ),
    ("regular_graph_lambda_bound", 64): (
        [4, 3, 4, 4, 4, 4, 3, 4, 4, 4],
        "32d12f9f1e4b5a2f2ad231b1f3724f9d337bd117dd1b37bcbc0e1d727391252d",
    ),
    ("regular_graph_lambda_bound", 256): (
        [5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "063649c4373d5beea161bf4e9257b5af60d4a956506fc19213139d1479e41dd5",
    ),
    ("sigma", 64): (
        [4, 3, 4, 4, 4, 4, 4, 3, 4, 3, 4, 4, 4, 3, 4],
        "7e64ae3879ac566412dfed016a5707be0522264f0adfd3749d177d8a8ca6e7a2",
    ),
    ("sigma", 256): (
        [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        "4b1ca60086972388e42fe81a27bd4e5102fea1b756669ccf20619a0941e252db",
    ),
    ("tau", 64): (
        [3, 4, 3, 4, 3],
        "fb4e2c328c90036a13b1bb7ebdf875b5e9712d813b8421f9c3692394f41041a7",
    ),
    ("tau", 256): (
        [5, 5, 5, 5, 5],
        "a7636d365dbbe95f82249766ef2f845ffa9493489a93c62f7699ed45b4d6a619",
    ),
    ("theta", 64): (
        [3],
        "ffd7151f0bc955df5a9f9eae5fb55aec80e9844d3d633989848eac1173dd1121",
    ),
    ("theta", 256): (
        [5],
        "75df5e1521659097c087825818156bd6d15b1ce9f278d9a7065b05cdd85c74c1",
    ),
}


def test_beta0_solves_are_pinned():
    assert solves(solve_beta0) == PINNED_BETA0


def evaluations_and_fallbacks(run) -> tuple:
    """(evaluations of f over the find_root calls of run(), how many of
    those calls fall back to their algebraic bracket, evaluating an end of
    it, because they have no seed or the seed's points miss the root)."""
    evaluations = fallbacks = 0

    def counted(f, lo, hi, tol=None, seed=None):
        nonlocal evaluations, fallbacks
        points = []

        def g(x):
            points.append(x)
            return f(x)

        root = find_root(g, lo, hi, tol, seed=seed)
        evaluations += len(points)
        fallbacks += seed is None or lo in points or hi in points
        return root

    with patch.object(bd, "find_root", counted):
        run()
    return evaluations, fallbacks


def test_beta0_fallbacks_are_pinned():
    # over all 200 seed-1 dual_sweep points: the evaluations of the beta_0
    # solves (2,083 from the algebraic bracket alone), and the fallbacks
    def run():
        for n, alpha in dual_points(1, 200):
            bd.beta_for_equality(n, alpha)

    assert evaluations_and_fallbacks(run) == (944, 0)


@pytest.mark.parametrize("bits, pinned", [(64, 396), (128, 574), (256, 571)])
def test_sigma_seeds_never_fall_back(bits, pinned):
    # over even n = 4..200, mu_n and tau_n solved first: the evaluations of
    # the sigma solves (1,638 from (1/n, tau_n) alone at 256 bits), and the
    # fallbacks
    solved = [(n, bd.mu(n, bits).mu, bd.tau(n, bits)) for n in range(4, 201, 2)]

    def run():
        for n, mu_n, tau_n in solved:
            bd._sigma(n, bits, None, mu_n, tau_n)

    assert evaluations_and_fallbacks(run) == (pinned, 0)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_even_n_solves_are_pinned(name, bits):
    # sigma also solves mu and tau, and the regular-graph bound solves mu
    # before s: every call is pinned, in order
    solver = SOLVERS[name]
    assert solves(lambda: [solver(n, bits) for n in EVEN_N]) == PINNED[name, bits]


@pytest.mark.parametrize("bits", [64, 256])
def test_theta_solve_is_pinned(bits):
    assert solves(lambda: bd.theta(bits)) == PINNED["theta", bits]
