import math

import numpy as np
import pytest
import scipy.special

from rtflab.errors import DomainError
from rtflab.fields import FinitePlace, RATIONALS
from rtflab.local_factors import local_l_character, local_l_spherical, local_l_spherical_sign
from rtflab.measures import (
    dx_dy_abs,
    finite_spectral_formula,
    integrate_density,
    lambda_mass,
    local_spectral,
    local_spectral_density,
    plancherel,
    plancherel_density,
    plancherel_mass_closed_form,
    pushforward_check,
    pushforward_fullwindow_factor,
    sato_tate,
    sato_tate_density,
    satake_x_of_y,
    spectral_pairing,
)

P = RATIONALS.place_for_prime
ARCH = RATIONALS.archimedean_places[0]


def scipy_arch_density(y: np.ndarray) -> np.ndarray:
    """Independent archimedean density oracle through scipy's gamma."""
    s = 0.5 + 0.5j * y
    gamma_r = np.pi ** (-s / 2) * scipy.special.gamma(s / 2)
    central = np.abs(gamma_r) ** 2
    weight = 1.0 / np.abs(scipy.special.gamma(0.5j * y)) ** 2
    return central**2 * weight / (4.0 * np.pi)


class TestSemicircle:
    def test_endpoints_vanish(self):
        assert sato_tate_density(2.0) == 0.0
        assert sato_tate_density(-2.0) == 0.0

    def test_center_value(self):
        assert sato_tate_density(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_mass_is_semicircle_area(self):
        res = sato_tate().mass(1e-11)
        assert abs(res.value - 1.0) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sato_tate_density(2.5)


class TestPlancherelDensity:
    def test_minus_sign_at_zero(self):
        for p in (2, 5):
            a = math.sqrt(p) + 1.0 / math.sqrt(p)
            expected = (p + 1.0) / a**2 / math.pi
            assert plancherel_density(0.0, p, -1) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_mass_one_via_closed_form(self, p, sign):
        closed = plancherel_mass_closed_form(p, sign)
        assert closed == pytest.approx(1.0, abs=1e-14)
        got = plancherel(p, sign).mass(1e-10)
        assert abs(got.value - closed) <= 1e-8

    def test_large_prime_approaches_semicircle(self):
        p = 1000003  # prime near 1e6
        for x in np.linspace(-1.9, 1.9, 21):
            ratio = plancherel_density(float(x), p, 1) / sato_tate_density(float(x))
            assert abs(ratio - 1.0) <= 5e-3

    def test_nonnegative_grid(self):
        for x in np.linspace(-2.0, 2.0, 401):
            assert sato_tate_density(float(x)) >= 0.0
            for p in (2, 7):
                for sign in (1, -1):
                    assert plancherel_density(float(x), p, sign) >= 0.0


class TestLocalSpectralDensity:
    def test_finite_vanishes_at_zero(self):
        assert local_spectral_density(0.0, P(2), 1) == 0.0

    def test_archimedean_vanishes_at_zero(self):
        assert local_spectral_density(0.0, None, 1) == 0.0

    def test_archimedean_vs_scipy_oracle(self):
        ys = np.linspace(0.05, 8.0, 120)
        ours = np.array([local_spectral_density(float(y), None, 1) for y in ys])
        ref = scipy_arch_density(ys)
        assert np.max(np.abs(ours - ref)) <= 1e-12

    def test_finite_midpoint_matches_transported_density(self):
        # y = pi / log 2 maps to x = 0
        q = 2
        y = math.pi / math.log(q)
        lhs = local_spectral_density(y, P(q), 1)
        rhs = plancherel_density(0.0, q, 1) * dx_dy_abs(y, q)
        assert lhs == pytest.approx(rhs, abs=1e-14)
        assert satake_x_of_y(y, q) == pytest.approx(0.0, abs=1e-14)

    def test_window_domain_enforced(self):
        with pytest.raises(DomainError):
            local_spectral_density(10.0, P(2), 1)
        with pytest.raises(DomainError):
            local_spectral_density(-0.5, None, 1)

    def test_formula_symmetries(self):
        for q in (2, 5):
            window = 2.0 * math.pi / math.log(q)
            for sign in (1, -1):
                for y in (0.3 * window, 0.8 * window):
                    base = finite_spectral_formula(y, q, sign)
                    assert finite_spectral_formula(y + 2.0 * window, q, sign) == pytest.approx(base, abs=1e-14)
                    assert finite_spectral_formula(-y, q, sign) == pytest.approx(base, abs=1e-14)


class TestPushforward:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_halfwindow_identity(self, q, sign):
        assert pushforward_check(P(q), sign, 1000) <= 1e-9

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_fullwindow_negative_control_factor_two(self, q, sign):
        lo, hi = pushforward_fullwindow_factor(P(q), sign, 1000)
        assert abs(lo - 2.0) <= 1e-9
        assert abs(hi - 2.0) <= 1e-9

    def test_window_masses(self):
        # The window maps once onto [-2, 2]: the full-window mass is one and
        # the half-window mass is the per-prime mass of [0, 2].
        for q in (2, 3):
            for sign in (1, -1):
                full = lambda_mass(P(q), sign, 1e-10, "full").value
                assert full == pytest.approx(1.0, abs=1e-8)
                half = lambda_mass(P(q), sign, 1e-10, "half").value
                mu_right = integrate_density(plancherel(q, sign), 0.0, 2.0, 1e-10).value
                assert half == pytest.approx(mu_right, abs=1e-8)


class TestSpectralPairing:
    def test_zero_function(self):
        res = spectral_pairing({ARCH: (lambda y: 0.0, (1.0, 2.0))}, lambda p: 1, 1.0)
        assert res.value == 0.0

    def test_single_arch_place_vs_trapezoid_oracle(self):
        res = spectral_pairing({ARCH: (lambda y: 1.0, (1.0, 2.0))}, lambda p: 1, 1.0, tol=1e-12)
        ys = np.linspace(1.0, 2.0, 1_000_001)
        # numpy 2.0 renamed trapz to trapezoid; numpy 1.x has only trapz.
        trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        oracle = 4.0 * float(trapezoid(scipy_arch_density(ys), ys))
        assert res.value == pytest.approx(oracle, abs=1e-8)

    def test_product_factorizes(self):
        fin = P(3)
        window = 2.0 * math.pi / math.log(3.0)
        fns = {
            ARCH: (lambda y: 1.0, (0.5, 1.5)),
            fin: (lambda y: 1.0, (0.0, window)),
        }
        sign_at = lambda p: -1
        combined = spectral_pairing(fns, sign_at, 1.0, tol=1e-11)
        arch_only = spectral_pairing({ARCH: fns[ARCH]}, sign_at, 1.0, tol=1e-11)
        fin_only = spectral_pairing({fin: fns[fin]}, sign_at, 1.0, tol=1e-11)
        assert combined.value == pytest.approx(arch_only.value * fin_only.value / 4.0, rel=1e-9)

    def test_l_value_scaling(self):
        fns = {ARCH: (lambda y: 1.0, (1.0, 2.0))}
        a = spectral_pairing(fns, lambda p: 1, 1.0)
        b = spectral_pairing(fns, lambda p: 1, 2.5)
        assert b.value == pytest.approx(2.5 * a.value, rel=1e-12)

    def test_rejects_noncompact_support(self):
        with pytest.raises(DomainError):
            spectral_pairing({ARCH: (lambda y: 1.0, (0.0, math.inf))}, lambda p: 1, 1.0)

    def test_rejects_support_outside_window(self):
        with pytest.raises(DomainError):
            spectral_pairing({P(2): (lambda y: 1.0, (0.0, 100.0))}, lambda p: 1, 1.0)


class TestRefinement:
    def test_halving_tolerance_never_worsens(self):
        density = plancherel(3, -1)
        oracle = plancherel_mass_closed_form(3, -1)
        errs = []
        for t in (1e-3, 1e-5, 1e-7, 1e-9):
            errs.append(abs(integrate_density(density, -2.0, 2.0, t).value - oracle))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-15  # float-noise floor


class TestUnboundedDomains:
    def test_archimedean_density_mass_rejected(self):
        from rtflab.measures import local_spectral

        with pytest.raises(DomainError):
            local_spectral(None, 1).mass()

    def test_archimedean_tail_limit(self):
        # the density tends to 1/pi at high spectral parameter
        assert local_spectral_density(200.0, None, 1) == pytest.approx(1.0 / math.pi, abs=2e-5)

    def test_infinite_endpoints_rejected_by_quadrature(self):
        from rtflab.quadrature import integrate

        with pytest.raises(ValueError):
            integrate(lambda y: 0.0, 0.0, math.inf, 1e-8)


class TestSpectralPointDensity:
    def test_complementary_branch_carries_no_mass(self):
        from rtflab.local_factors import SpectralPoint
        from rtflab.measures import spectral_density_at_point

        assert spectral_density_at_point(SpectralPoint(0.5 + 0.0j)) == 0.0
        place = RATIONALS.place_for_prime(2)
        assert spectral_density_at_point(SpectralPoint(0.5 + 0.0j, place)) == 0.0

    def test_axis_point_matches_density(self):
        from rtflab.local_factors import SpectralPoint
        from rtflab.measures import spectral_density_at_point

        place = RATIONALS.place_for_prime(3)
        y = 0.7
        got = spectral_density_at_point(SpectralPoint(1j * y, place), -1)
        assert got == pytest.approx(local_spectral_density(y, place, -1), abs=1e-15)

    def test_out_of_domain_rejected(self):
        from rtflab.local_factors import SpectralPoint
        from rtflab.measures import spectral_density_at_point

        with pytest.raises(DomainError):
            spectral_density_at_point(SpectralPoint(1.5 + 0.0j))


def per_call_plancherel(x, q, sign):
    """The per-prime density with every constant recomputed per call."""
    a = math.sqrt(q) + 1.0 / math.sqrt(q)
    base = sato_tate_density(x)
    if sign == 1:
        return (q - 1.0) / (a - x) ** 2 * base
    return (q + 1.0) / (a * a - x * x) * base


def per_call_finite(y, q, sign):
    """The finite-place formula with every constant recomputed per call."""
    nu = 1j * y
    num = (
        local_l_spherical(0.5, nu, q)
        * local_l_spherical_sign(0.5, nu, q, sign)
        / local_l_character(1.0, complex(sign), q)
    ).real
    kernel = 2.0 - 2.0 * math.cos(y * math.log(q))
    return num * math.log(q) / (4.0 * math.pi) * kernel


class TestHoistedConstantsBitIdentical:
    """Density closures compute their constants once; every value must be
    the same float as the public scalar function and the per-call formula."""

    POINTS = 10_000

    def test_semicircle(self):
        fn = sato_tate().fn
        for x in np.linspace(-2.0, 2.0, self.POINTS).tolist():
            assert fn(x) == sato_tate_density(x)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_plancherel(self, q, sign):
        fn = plancherel(q, sign).fn
        for x in np.linspace(-2.0, 2.0, self.POINTS).tolist():
            value = fn(x)
            assert value == plancherel_density(x, q, sign)
            assert value == per_call_plancherel(x, q, sign)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_finite_spectral(self, q, sign):
        place = FinitePlace(f"q{q}", q)
        density = local_spectral(place, sign)
        ys = np.linspace(density.lo, density.hi, self.POINTS).tolist()
        assert (ys[0], ys[-1]) == (0.0, 2.0 * math.pi / math.log(q))
        for y in ys:
            value = density.fn(y)
            assert value == local_spectral_density(y, place, sign)
            assert value == finite_spectral_formula(y, q, sign)
            assert value == per_call_finite(y, q, sign)

    def test_archimedean(self):
        fn = local_spectral(ARCH, 1).fn
        for y in np.linspace(0.0, 20.0, 1_000).tolist():
            assert fn(y) == local_spectral_density(y, ARCH, 1)

    def test_checks_run_once_at_construction(self):
        with pytest.raises(ValueError):
            plancherel(3, 0)
        with pytest.raises(ValueError):
            plancherel(1, 1)
        with pytest.raises(ValueError):
            local_spectral(P(3), 2)
        with pytest.raises(DomainError):
            plancherel(3, 1).fn(2.5)
        with pytest.raises(DomainError):
            local_spectral(P(3), 1).fn(-0.1)
        with pytest.raises(DomainError):
            local_spectral(P(3), 1).fn(2.0 * math.pi / math.log(3.0) + 0.1)
