"""The bound formulas of the schedule that verifier and report derive
(verify.schedule), pinned to the paper's closed forms in exact integers.

With delta the exploration depth and ell the last phase, the cluster radii
R_0 = 0, R_{i+1} = (2 delta + 1) R_i + delta sum to
R_ell = ((2 delta + 1)^ell - 1) / 2. So the polylog stretch 2 R_ell + 1 is
(4 ceil(log2 n) + 1)^(kappa - 1), and the sparse stretch 4 R_ell + 1 is
2 (2 ceil(2/rho) + 1)^ell - 1, with
ell = floor(log2(kappa rho)) + ceil((kappa + 1) / (kappa rho)) - 1. The size
bounds are |H| <= (n - 1) + n (ceil(n^(1/kappa)) - 1) (polylog: at most n - 1
superclustering edges and ceil(n^(1/kappa)) - 1 interconnection edges per
vertex) and |H| <= n^(1 + 1/kappa) + n (sparse), and count <= n^(p/q) means
count^q <= n^p.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from congestspan import polylog, sparse, verify
from congestspan.exact import count_ge_pow, count_le_pow, count_lt_pow

NS = (2, 3, 4, 5, 16, 17, 64, 100, 128, 256, 1000, 1024, 2048, 4096)
KAPPAS = (2, 3, 4, 5, 7, 9, 12)


def _rhos(kappa: int):
    """rho = 1/kappa, where the schedule's exponential stage is one phase,
    and a few values up to just below 1/2."""
    candidates = {Fraction(1, kappa), Fraction(17, 50), Fraction(1, 3),
                  Fraction(2, 5), Fraction(49, 100)}
    return sorted(r for r in candidates if Fraction(1, kappa) <= r < Fraction(1, 2))


GRID = [(n, kappa, rho) for n in NS for kappa in KAPPAS for rho in _rhos(kappa)]


def _ceil_log2(n: int) -> int:
    k = 0
    while 2 ** k < n:
        k += 1
    return k


def _ceil(a: Fraction) -> int:
    return -(-a.numerator // a.denominator)


def _floor_log2(x: Fraction) -> int:
    """Largest i with 2^i <= x, for x >= 1."""
    i = 0
    while 2 ** (i + 1) * x.denominator <= x.numerator:
        i += 1
    return i


def _floor_pow(n: int, p: int, q: int) -> int:
    """Largest m with m^q <= n^p."""
    m = int(n ** (p / q))
    while m ** q > n ** p:
        m -= 1
    while (m + 1) ** q <= n ** p:
        m += 1
    return m


def _ceil_root(n: int, kappa: int) -> int:
    """Least c >= 1 with c^kappa >= n."""
    c = 1
    while c ** kappa < n:
        c += 1
    return c


def _last_radius(algorithm: str, **params) -> int:
    """R_ell of the schedule verify.schedule derives from params."""
    build = SimpleNamespace(algorithm=algorithm, params=params)
    return verify.schedule(build).radius_bounds[-1]


def _result(n: int, kappa: int, size: int):
    return SimpleNamespace(params={"n": n, "kappa": kappa},
                           spanner=SimpleNamespace(size=lambda: size))


def test_grid_holds_both_boundaries():
    assert any(n == 2 for n, _, _ in GRID)
    assert any(rho == Fraction(1, kappa) for _, kappa, rho in GRID)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_polylog_stretch_is_the_closed_form(n, kappa):
    closed = (4 * _ceil_log2(n) + 1) ** (kappa - 1)
    assert 2 * _last_radius("polylog", n=n, kappa=kappa) + 1 == closed
    assert polylog.stretch_bound(n, kappa) == closed + 1


@pytest.mark.parametrize("n, kappa, rho", GRID)
def test_sparse_stretch_is_the_closed_form(n, kappa, rho):
    ell = _floor_log2(kappa * rho) + _ceil(Fraction(kappa + 1) / (kappa * rho)) - 1
    delta = _ceil(2 / rho)
    exact = 4 * _last_radius("sparse", n=n, kappa=kappa, rho=rho) + 1
    assert exact == 2 * (2 * delta + 1) ** ell - 1
    paper = 2 * (4 / rho + 1) ** ell + 1
    assert sparse.stretch_bound(rho, ell) == float(paper)
    if (2 / rho).denominator == 1:
        # delta = 2/rho exactly: two below the paper's 2 (4/rho + 1)^ell + 1
        assert exact == paper - 2


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_size_bounds_are_the_closed_forms(n, kappa):
    top = _floor_pow(n, kappa + 1, kappa)   # floor(n^(1 + 1/kappa))
    assert top ** kappa <= n ** (kappa + 1) < (top + 1) ** kappa
    charged = (n - 1) + n * (_ceil_root(n, kappa) - 1)
    assert top - 1 <= charged < top + n
    for size in (0, 1, top - 1, top, top + 1, top + n, top + n + 1,
                 charged, charged + 1):
        assert polylog.size_bound_holds(_result(n, kappa, size)) == (size <= charged)
        assert sparse.size_bound_holds(_result(n, kappa, size)) == (size <= top + n)


EXPOS = sorted({Fraction(1, kappa) for kappa in KAPPAS}
               | {Fraction(kappa + 1, kappa) for kappa in KAPPAS}
               | {rho for _, _, rho in GRID}
               | {Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(-3, 4)})


@pytest.mark.parametrize("expo", EXPOS, ids=str)
def test_counting_is_the_integer_power_comparison(expo):
    p, q = expo.numerator, expo.denominator
    for n in NS:
        if p >= 0:
            m = _floor_pow(n, p, q)
            counts = {0, 1, m - 1, m, m + 1, m + 2}
        else:
            counts = {0, 1, 2}
        for count in sorted(c for c in counts if c >= 0):
            # count^q against n^p, the sides swapped for a negative p
            lhs, rhs = ((count ** q, n ** p) if p >= 0
                        else (count ** q * n ** -p, 1))
            assert count_le_pow(count, n, expo) == (lhs <= rhs)
            assert count_lt_pow(count, n, expo) == (lhs < rhs)
            assert count_ge_pow(count, n, expo) == (lhs >= rhs)
