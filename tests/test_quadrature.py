import math

import pytest

from rtflab import quadrature
from rtflab.errors import QuadratureError
from rtflab.quadrature import QuadratureResult, integrate


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda x: 1.0, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert res.error_estimate <= 1e-12

    def test_polynomial_exact(self):
        res = integrate(lambda x: x**5 - 3 * x**2, -1.0, 2.0, 1e-12)
        exact = (2**6 - 1) / 6 - (2**3 + 1)
        assert res.value == pytest.approx(exact, abs=1e-13)

    def test_oscillatory(self):
        res = integrate(lambda x: math.sin(40.0 * x), 0.0, math.pi, 1e-11)
        exact = (1.0 - math.cos(40.0 * math.pi)) / 40.0
        assert res.value == pytest.approx(exact, abs=1e-10)

    def test_orientation(self):
        fwd = integrate(lambda x: x, 0.0, 1.0, 1e-12).value
        rev = integrate(lambda x: x, 1.0, 0.0, 1e-12).value
        assert fwd == pytest.approx(-rev, abs=1e-15)

    def test_empty_interval(self):
        assert integrate(lambda x: 1.0, 2.0, 2.0, 1e-12) == QuadratureResult(0.0, 0.0, 0)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            integrate(lambda x: 1.0, 0.0, 1.0, 0.0)

    def test_nonconvergence_reports_achieved_estimate(self, monkeypatch):
        # A kink integrand at an irrational point defeats the panel budget at
        # an impossible tolerance; the partial result must be attached.
        c = 1.0 / math.sqrt(2.0)
        exact = (2.0 / 3.0) * (c**1.5 + (1.0 - c) ** 1.5)
        f = lambda x: abs(x - c) ** 0.5
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 64)
        with pytest.raises(QuadratureError) as info:
            integrate(f, 0.0, 1.0, 1e-16)
        partial = info.value.result
        assert partial is not None
        assert partial.error_estimate > 1e-16
        assert partial.value == pytest.approx(exact, abs=1e-6)

    def test_error_estimate_is_conservative_on_kink(self):
        c = 1.0 / math.sqrt(2.0)
        exact = (2.0 / 3.0) * (c**1.5 + (1.0 - c) ** 1.5)
        res = integrate(lambda x: abs(x - c) ** 0.5, 0.0, 1.0, 1e-10)
        assert abs(res.value - exact) <= res.error_estimate

