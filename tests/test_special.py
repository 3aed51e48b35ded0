import math

import mpmath
import numpy as np
import pytest

from rtflab.errors import PoleError
from rtflab.fields import RATIONALS
from rtflab.measures import local_spectral
from rtflab.oracles import lambda_inf_gamma_product
from rtflab.special import (
    EULER_GAMMA,
    digamma,
    gamma,
    log_gamma,
)

LAMBDA_INF = local_spectral(RATIONALS.archimedean_places[0], 1).kernel


class TestGamma:
    def test_half_integer(self):
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14

    def test_factorials(self):
        for n in range(1, 12):
            assert math.isclose(gamma(n).real, math.factorial(n - 1), rel_tol=1e-13)

    def test_against_mpmath_on_complex_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            z = complex(rng.uniform(-4, 6), rng.uniform(-8, 8))
            if abs(z.imag) < 1e-3 and z.real <= 0.5:
                continue
            ours = gamma(z)
            ref = complex(mpmath.gamma(z))
            assert abs(ours - ref) <= 1e-12 * abs(ref)

    def test_pole_raises(self):
        for z in (0.0, -1.0, -2.0):
            with pytest.raises(PoleError):
                gamma(z)

    def test_log_gamma_matches_gamma(self):
        for z in (0.7, 2.3 + 1.1j, 10.0, 4.0 - 3.0j):
            assert abs(complex(mpmath.exp(log_gamma(z))) - gamma(z)) < 1e-12 * abs(gamma(z))

    def test_log_gamma_large_argument(self):
        # Stirling regime where gamma itself would overflow.
        lg = log_gamma(2500.0)
        ref = complex(mpmath.loggamma(2500))
        assert abs(lg - ref) < 1e-10 * abs(ref)


class TestDualRoute:
    """The archimedean weight by the gamma ratio of the orbit factor against
    the product of Lanczos gammas."""

    def test_gamma_ratio_vs_lanczos_product(self):
        # On [50, 400] the ratio takes its Euler-number series.
        worst = 0.0
        for y in [*np.linspace(0.1, 30.0, 600).tolist(), *np.linspace(50.0, 400.0, 71).tolist()]:
            a = lambda_inf_gamma_product(y)
            b = LAMBDA_INF(y)
            worst = max(worst, abs(a - b) / b)
        assert worst <= 1e-10

    def test_small_y_series(self):
        # lambda_inf(y) = Gamma(1/4)**4 / (16 pi**2) y**2 (1 - 1.74 y**2 + ...)
        lead = math.gamma(0.25) ** 4 / (16.0 * math.pi**2)
        for y in (1e-3, 1e-4, 1e-5):
            for route in (LAMBDA_INF, lambda_inf_gamma_product):
                assert abs(route(y) / y**2 - lead) < 2.0 * lead * y**2

    def test_vanishes_at_zero(self):
        assert LAMBDA_INF(0.0) == 0.0
        assert lambda_inf_gamma_product(0.0) == 0.0


class TestDigamma:
    def test_classical_values(self):
        assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-12
        assert abs(digamma(0.5) + EULER_GAMMA + 2 * math.log(2.0)) <= 1e-12

    def test_recurrence(self):
        for x in (0.3, 1.7, 5.5):
            assert math.isclose(digamma(x + 1.0), digamma(x) + 1.0 / x, rel_tol=1e-12)

    def test_against_mpmath(self):
        for x in np.linspace(0.05, 25.0, 113):
            assert abs(digamma(float(x)) - float(mpmath.digamma(x))) < 1e-12 * max(
                1.0, abs(float(mpmath.digamma(x)))
            )

    def test_negative_axis_reflection(self):
        x = -2.3
        assert abs(digamma(x) - float(mpmath.digamma(x))) < 1e-11

    @pytest.mark.parametrize("z", [-749.75, -1e6 - 0.25, -3.3 + 2.0j, -1e15 - 0.25])
    def test_reflection_reduces_before_the_tangent(self, z):
        # tan(pi z) unreduced was 3.8e-13 off at -749.75 and 9.4e-11 at -1e6 - 0.25
        with mpmath.workdps(40):
            want = mpmath.digamma(mpmath.mpmathify(z))
            err = float(abs((mpmath.mpmathify(digamma(z)) - want) / want))
        assert err <= 1e-15

    def test_pole(self):
        with pytest.raises(PoleError):
            digamma(0.0)
        with pytest.raises(PoleError):
            digamma(-3.0)
