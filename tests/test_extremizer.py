import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

from logeuler.extremizer import (
    QuadratureError,
    RadialPiece,
    RadialProfile,
    build_extremizer,
    radial_norms,
    sharpness_curve,
)

# closed forms for the p = 4 profile, middle piece in t = -log r:
#   int_1^4 t   e^{-2t} dt = [-(t/2 + 1/4) e^{-2t}]_1^4
#   int_1^4 t^2 e^{-2t} dt = [-(t^2/2 + t/2 + 1/4) e^{-2t}]_1^4
MID_L2_P4 = (0.5 + 0.25) * math.exp(-2.0) - (2.0 + 0.25) * math.exp(-8.0)
MID_L4_P4 = (0.5 + 0.5 + 0.25) * math.exp(-2.0) - (8.0 + 2.0 + 0.25) * math.exp(-8.0)
MID_H1_P4 = math.log(4.0) / 4.0  # int (f')^2 r dr = int_1^p dt/(4t)


def simpson_piece(fn, a, b, n=40_001):
    r = np.linspace(a, b, n)
    return simpson(fn(r), x=r)


class TestBuildExtremizer:
    def test_plateau_value(self):
        f = build_extremizer(16.0)
        assert f(math.exp(-16.0) / 2.0) == pytest.approx(4.0, abs=1e-14)

    def test_value_at_log_knee(self):
        f = build_extremizer(16.0)
        assert f(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-13)

    def test_continuity_at_breakpoints(self):
        for p in (4.0, 16.0, 256.0):
            f = build_extremizer(p)
            for r_break in (math.exp(-p), math.exp(-1.0)):
                left = f(r_break * (1.0 - 1e-13))
                right = f(r_break * (1.0 + 1e-13))
                assert abs(left - right) < 1e-12

    def test_vanishes_beyond_support(self):
        f = build_extremizer(8.0)
        assert f(1.0) == pytest.approx(0.0, abs=1e-15)
        assert f(2.5) == 0.0

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            build_extremizer(3.9)


class TestRadialNorms:
    def test_p4_against_closed_forms_and_simpson(self):
        profile = build_extremizer(4.0)
        a, b = math.exp(-1.0), 1.0
        tail = profile.pieces[2]
        tail_l2 = simpson_piece(lambda r: tail.func(r) ** 2 * r, a, b)
        tail_l4 = simpson_piece(lambda r: tail.func(r) ** 4 * r, a, b)
        tail_h1 = simpson_piece(lambda r: tail.deriv(r) ** 2 * r, a, b)
        inner_l2 = 4.0 * math.exp(-8.0) / 2.0
        inner_l4 = 16.0 * math.exp(-8.0) / 2.0

        two_pi = 2.0 * math.pi
        l2_expected = math.sqrt(two_pi * (inner_l2 + MID_L2_P4 + tail_l2))
        l4_expected = (two_pi * (inner_l4 + MID_L4_P4 + tail_l4)) ** 0.25
        h1_expected = math.sqrt(two_pi * (MID_H1_P4 + tail_h1))

        norms = radial_norms(profile, 4.0)
        assert norms.l2 == pytest.approx(l2_expected, rel=1e-7)
        assert norms.lp == pytest.approx(l4_expected, rel=1e-7)
        assert norms.h1dot == pytest.approx(h1_expected, rel=1e-7)

    def test_l2_uniformly_bounded(self):
        for p in (4, 16, 64, 256):
            assert radial_norms(build_extremizer(p), p).l2 < 2.0

    def test_h1_grows_like_sqrt_log_p(self):
        # fitted constant stays in a narrow band (observed 1.74 .. 2.74)
        for p in (4, 16, 64, 256):
            n = radial_norms(build_extremizer(p), p)
            assert n.h1dot <= 2.8 * math.sqrt(math.log(p))

    def test_lp_grows_like_sqrt_p(self):
        # fitted constant decreases toward ~0.309, stays above 0.30
        for p in (4, 16, 64, 256):
            n = radial_norms(build_extremizer(p), p)
            assert n.lp >= 0.30 * math.sqrt(p)

    def test_no_overflow_at_largest_p(self):
        n = radial_norms(build_extremizer(256.0), 256.0)
        assert np.isfinite(n.lp) and n.lp > 0

    def test_quadrature_failure_reported(self):
        wild = RadialProfile(
            (
                RadialPiece(
                    0.0,
                    1.0,
                    lambda r: np.sin(1e9 * r),
                    lambda r: 1e9 * np.cos(1e9 * r),
                ),
            ),
            1.0,
        )
        with pytest.raises(QuadratureError):
            radial_norms(wild, 4.0)


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

    def test_rejects_an_empty_p_list(self):
        with pytest.raises(ValueError, match="at least one p >= 4"):
            sharpness_curve([])


def test_quadrature_stack_loads_only_for_the_sharpness_table():
    # importing the package and its cli must not pull in scipy.integrate
    # (about 25 MB of RSS); the first sharpness table does
    script = (
        "import sys\n"
        "import logeuler, logeuler.cli\n"
        "print('scipy.integrate' in sys.modules)\n"
        "from logeuler.extremizer import sharpness_curve\n"
        "sharpness_curve([4.0])\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
