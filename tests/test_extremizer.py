import math

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import simpson

from logeuler.extremizer import radial_norms, sharpness_curve

# closed forms for the p = 4 profile, middle piece in t = -log r:
#   int_1^4 t   e^{-2t} dt = [-(t/2 + 1/4) e^{-2t}]_1^4
#   int_1^4 t^2 e^{-2t} dt = [-(t^2/2 + t/2 + 1/4) e^{-2t}]_1^4
MID_L2_P4 = (0.5 + 0.25) * math.exp(-2.0) - (2.0 + 0.25) * math.exp(-8.0)
MID_L4_P4 = (0.5 + 0.5 + 0.25) * math.exp(-2.0) - (8.0 + 2.0 + 0.25) * math.exp(-8.0)
MID_H1_P4 = math.log(4.0) / 4.0  # int (f')^2 r dr = int_1^p dt/(4t)

# the tail on [e^{-1}, 1]: f = 1 - u^2 (3 - 2u) with u = (r - e^{-1}) / (1 - e^{-1})
TAIL_SPAN = 1.0 - math.exp(-1.0)


def tail_f(r):
    u = (r - math.exp(-1.0)) / TAIL_SPAN
    return 1.0 - u * u * (3.0 - 2.0 * u)


def tail_df(r):
    u = (r - math.exp(-1.0)) / TAIL_SPAN
    return -6.0 * u * (1.0 - u) / TAIL_SPAN


def simpson_piece(fn, a, b, n=40_001):
    r = np.linspace(a, b, n)
    return simpson(fn(r), x=r)


def _middle_exact(m, p):
    """int_1^p t^m e^{-2t} dt for integer m:
    m!/2^{m+1} [e^{-2} sum_{j<=m} 2^j/j! - e^{-2p} sum_{j<=m} (2p)^j/j!]."""
    def partial_exp(x):
        term = total = mp.mpf(1)
        for j in range(1, m + 1):
            term *= x / j
            total += term
        return total
    return mp.factorial(m) / 2 ** (m + 1) * (
        mp.exp(-2) * partial_exp(2) - mp.exp(-2 * p) * partial_exp(2 * p))


def _tail_exact(q):
    """int f^q r dr over the tail for integer q.  With f = (1-u)^2 (1+2u)
    and r dr = (a + b u) b du, expanding (1+2u)^q leaves Beta integrals:
    b sum_k C(q, k) 2^k [a B(k+1, 2q+1) + b B(k+2, 2q+1)]."""
    a = mp.exp(-1)
    b = 1 - a
    total, term = mp.mpf(0), mp.mpf(1) / (2 * q + 1)  # C(q, k) 2^k B(k+1, 2q+1)
    for k in range(q + 1):
        total += term * (a + b * (k + 1) / (2 * q + k + 2))
        term *= mp.mpf(2 * (q - k)) / (2 * q + k + 2)
    return b * total


def exact_norms(p):
    """(l2, lp, h1dot) of f_p for even p from finite sums at 50 digits."""
    with mp.workdps(50):
        two_pi = 2 * mp.pi
        a = mp.exp(-1)
        b = 1 - a
        m = p // 2
        l2 = two_pi * (p * mp.exp(-2 * p) / 2 + _middle_exact(1, p) + _tail_exact(2))
        lp = two_pi * (mp.mpf(p) ** m * mp.exp(-2 * p) / 2 + _middle_exact(m, p)
                       + _tail_exact(p))
        # int f'^2 r dr: dt/(4t) on the middle, 36 u^2 (1-u)^2 (a + b u)/b du on the tail
        h1 = two_pi * (mp.log(p) / 4 + 36 / b * (a * mp.beta(3, 3) + b * mp.beta(4, 3)))
        return float(mp.sqrt(l2)), float(lp ** (mp.mpf(1) / p)), float(mp.sqrt(h1))


class TestRadialNorms:
    def test_p4_against_closed_forms_and_simpson(self):
        a, b = math.exp(-1.0), 1.0
        tail_l2 = simpson_piece(lambda r: tail_f(r) ** 2 * r, a, b)
        tail_l4 = simpson_piece(lambda r: tail_f(r) ** 4 * r, a, b)
        tail_h1 = simpson_piece(lambda r: tail_df(r) ** 2 * r, a, b)
        inner_l2 = 4.0 * math.exp(-8.0) / 2.0
        inner_l4 = 16.0 * math.exp(-8.0) / 2.0

        two_pi = 2.0 * math.pi
        l2_expected = math.sqrt(two_pi * (inner_l2 + MID_L2_P4 + tail_l2))
        l4_expected = (two_pi * (inner_l4 + MID_L4_P4 + tail_l4)) ** 0.25
        h1_expected = math.sqrt(two_pi * (MID_H1_P4 + tail_h1))

        norms = radial_norms(4.0)
        assert norms.l2 == pytest.approx(l2_expected, rel=1e-7)
        assert norms.lp == pytest.approx(l4_expected, rel=1e-7)
        assert norms.h1dot == pytest.approx(h1_expected, rel=1e-7)

    def test_l2_uniformly_bounded(self):
        for p in (4, 16, 64, 256):
            assert radial_norms(p).l2 < 2.0

    def test_h1_grows_like_sqrt_log_p(self):
        # fitted constant stays in a narrow band (observed 1.74 .. 2.74)
        for p in (4, 16, 64, 256):
            n = radial_norms(p)
            assert n.h1dot <= 2.8 * math.sqrt(math.log(p))

    def test_lp_grows_like_sqrt_p(self):
        # fitted constant decreases toward ~0.309, stays above 0.30
        for p in (4, 16, 64, 256):
            n = radial_norms(p)
            assert n.lp >= 0.30 * math.sqrt(p)

    def test_no_overflow_at_largest_p(self):
        n = radial_norms(256.0)
        assert np.isfinite(n.lp) and n.lp > 0

    def test_rejects_p_outside_4_to_2_100(self):
        for p in (3.9, 2.0**101, math.nan):
            with pytest.raises(ValueError, match=r"p must be in \[4, 2\^100\]"):
                radial_norms(p)
        # the largest p allowed still gives finite norms; p = 2^120 used to
        # raise "math domain error"
        n = radial_norms(2.0**100)
        assert all(map(math.isfinite, (n.l2, n.lp, n.h1dot)))
        assert 0.30 <= n.lp / 2.0**50 <= 0.31

    @pytest.mark.parametrize("p", [4 * 2**k for k in range(11)])
    def test_against_exact_sums(self, p):
        l2, lp, h1 = exact_norms(p)
        norms = radial_norms(float(p))
        assert norms.lp == pytest.approx(lp, rel=1e-14)
        assert norms.l2 == pytest.approx(l2, rel=1e-14)
        assert norms.h1dot == pytest.approx(h1, rel=1e-14)


class TestSharpnessCurve:
    P_LIST = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]

    def test_deterministic(self):
        assert sharpness_curve(self.P_LIST) == sharpness_curve(self.P_LIST)

    def test_first_row_present_and_positive(self):
        rows = sharpness_curve([4.0])
        assert rows[0].p == 4.0
        assert rows[0].embed_ratio > 0

    def test_ratio_decays_no_faster_than_inv_sqrt_log(self):
        # ratio(p) * sqrt(log p) bounded below (observed minimum 0.129)
        rows = sharpness_curve(self.P_LIST)
        for row in rows:
            assert row.embed_ratio / row.inv_sqrt_log_p > 0.12

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            sharpness_curve([2.0, 8.0])

    def test_h1_finite_past_p_358(self):
        # p in [359, 372] used to give h1dot = inf and embed_ratio = 0 (the
        # squared derivative overflowed), and p >= 373 a math domain error
        (row,) = sharpness_curve([360.0])
        l2, lp, h1 = exact_norms(360)
        assert row.h1dot == pytest.approx(h1, rel=1e-14)
        assert row.embed_ratio == pytest.approx(
            lp / (math.sqrt(360.0) * (l2 + h1)), rel=1e-14)

    def test_rejects_an_empty_p_list(self):
        with pytest.raises(ValueError, match="at least one p >= 4"):
            sharpness_curve([])
