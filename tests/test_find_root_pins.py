"""find_root takes the same points as before, solve by solve.

Each case pins the number of evaluations of f in every find_root call a
solver makes, and the sha256 of the raw mpf results of those calls.  Both
were recorded from the step rule of the one-secant find_root (with sigma
solved as one certified root), so a change to the step rule, or to how
any operation rounds, fails here instead of passing silently.

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
        11, 13, 11, 13, 13, 10, 3, 12, 13, 13, 13, 11, 10, 4, 3, 12, 12, 13, 11, 13, 11, 13,
        11, 11, 11, 3, 12, 3, 11, 11, 12, 12, 12, 11, 13, 12, 11, 12, 11, 13, 13, 12, 3, 11,
        12, 3, 11, 13, 12, 11
    ],
    "77088999b415116015d656440b4e1839fec11f129679ef2f329d5fe02c906529",
)
PINNED = {
    ("mu", 64): (
        [9, 10, 10, 10, 10],
        "19ccaaa056114828ed3b39073e4981f2f310b17b1bc26c78a8ebda1d1934fe07",
    ),
    ("mu", 256): (
        [11, 11, 11, 11, 11],
        "57a4b77c37a7a224e8922a8ab731064d374461707be362090e2fb6d1c47ca15c",
    ),
    ("regular_graph_lambda_bound", 64): (
        [9, 9, 10, 9, 10, 10, 10, 10, 10, 10],
        "91bf84a24157bc4664c79bf160415802be16e25436bbcad5719c7a130c046039",
    ),
    ("regular_graph_lambda_bound", 256): (
        [11, 10, 11, 10, 11, 11, 11, 11, 11, 11],
        "54c6df75bfe0cf6b3106ae1dc505c254bc576d0ef1cfbfcbffca85cf1ed1d60b",
    ),
    ("sigma", 64): (
        [9, 8, 10, 10, 9, 10, 10, 8, 10, 10, 9, 11, 10, 8, 11],
        "fed5beaee436ae760e5e18543ae5481e02a8521894fc3eb6bca8facb1a1daea9",
    ),
    ("sigma", 256): (
        [11, 10, 11, 11, 10, 11, 11, 10, 12, 11, 10, 12, 11, 10, 13],
        "7ebf641da349724d3dc3ebf4f5a943b26d24e5f7142d487ffa8e18d633890665",
    ),
    ("tau", 64): (
        [8, 9, 8, 9, 8],
        "6c1aee06ec1f0b1774019f696e55a6aa354131254dca745b00412ab2d86cbbc4",
    ),
    ("tau", 256): (
        [10, 10, 10, 10, 10],
        "dd001dea9fbb351a937f58598e03911790fb2744e88a5d2328d0c7b12ff1b4c5",
    ),
    ("theta", 64): (
        [13],
        "960886e1eeea019b8d548ec887509f4c824f34df06e189c6beb4e5985fc7531d",
    ),
    ("theta", 256): (
        [14],
        "286fd6762fa55a70d284afef96754e50cbefa0d90f8fc295500d087123f0cc43",
    ),
}


def test_beta0_solves_are_pinned():
    assert solves(solve_beta0) == PINNED_BETA0


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
