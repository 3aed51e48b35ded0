import math

import mpmath
import numpy as np
import pytest
import scipy.special

from rtflab.characters import DirichletCharacter
from rtflab.errors import DomainError
from rtflab.fields import FinitePlace, RATIONALS
from rtflab import local_factors
from rtflab.local_factors import local_l_character, local_l_spherical
from rtflab.oracles import lambda_inf_gamma_product
from rtflab.measures import (
    Density,
    dx_dy_abs,
    integrate_density,
    local_spectral,
    plancherel,
    plancherel_mass_closed_form,
    pushforward_check,
    pushforward_fullwindow_factor,
    sato_tate,
    satake_x_of_y,
    spectral_pairing,
    theta_integrand,
)

P = RATIONALS.place_for_prime
ARCH = RATIONALS.archimedean_places[0]
MU_ST = sato_tate()
TRIVIAL = DirichletCharacter.trivial()


def scipy_arch_density(y: np.ndarray) -> np.ndarray:
    """Independent archimedean density oracle through scipy's gamma."""
    s = 0.5 + 0.5j * y
    gamma_r = np.pi ** (-s / 2) * scipy.special.gamma(s / 2)
    central = np.abs(gamma_r) ** 2
    weight = 1.0 / np.abs(scipy.special.gamma(0.5j * y)) ** 2
    return central**2 * weight / (4.0 * np.pi)


class TestSemicircle:
    def test_endpoints_vanish(self):
        assert MU_ST(2.0) == 0.0
        assert MU_ST(-2.0) == 0.0

    def test_center_value(self):
        assert MU_ST(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_mass_is_semicircle_area(self):
        res = sato_tate().mass(1e-11)
        assert abs(res.value - 1.0) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            MU_ST(2.5)


class TestPlancherelDensity:
    def test_minus_sign_at_zero(self):
        for p in (2, 5):
            a = math.sqrt(p) + 1.0 / math.sqrt(p)
            expected = (p + 1.0) / a**2 / math.pi
            assert plancherel(p, -1)(0.0) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_mass_one_via_closed_form(self, p, sign):
        closed = plancherel_mass_closed_form(p, sign)
        assert closed == pytest.approx(1.0, abs=1e-14)
        got = plancherel(p, sign).mass(1e-10)
        assert abs(got.value - closed) <= 1e-8

    def test_large_prime_approaches_semicircle(self):
        p = 1000003  # prime near 1e6
        mu = plancherel(p, 1)
        for x in np.linspace(-1.9, 1.9, 21):
            ratio = mu(float(x)) / MU_ST(float(x))
            assert abs(ratio - 1.0) <= 5e-3

    def test_nonnegative_grid(self):
        densities = [plancherel(p, sign) for p in (2, 7) for sign in (1, -1)]
        for x in np.linspace(-2.0, 2.0, 401):
            assert MU_ST(float(x)) >= 0.0
            for mu in densities:
                assert mu(float(x)) >= 0.0


class TestLocalSpectralDensity:
    def test_finite_vanishes_at_zero(self):
        assert local_spectral(P(2), 1)(0.0) == 0.0

    def test_archimedean_vanishes_at_zero(self):
        assert local_spectral(ARCH, 1)(0.0) == 0.0

    def test_archimedean_vs_scipy_oracle(self):
        ys = np.linspace(0.05, 8.0, 120)
        density = local_spectral(ARCH, 1)
        ours = np.array([density(float(y)) for y in ys])
        ref = scipy_arch_density(ys)
        assert np.max(np.abs(ours - ref)) <= 1e-12

    @pytest.mark.parametrize(
        "y", [1e-3, 0.5, 1.0, 10.0, 49.0, 51.0, 100.0, 449.0, 450.0, 452.5, 1e3, 1e5, 1e8, 1e15]
    )
    def test_archimedean_vs_mpmath_at_every_scale(self, y):
        # Finite and within 1e-14 where the gamma-product route gave inf
        # (449) or overflowed (452.5); the weight tends to 1/pi.
        with mpmath.workdps(30 + int(math.log10(max(y, 1.0)))):
            t = mpmath.mpf(y)
            gamma4 = abs(mpmath.gamma(mpmath.mpf(1) / 4 + 1j * t / 4)) ** 4
            want = gamma4 / (4 * mpmath.pi**2) * (t / 2) * mpmath.sinh(mpmath.pi * t / 2) / mpmath.pi
            got = local_spectral(ARCH, 1)(y)
            assert math.isfinite(got)
            assert float(abs((got - want) / want)) <= 1e-14

    def test_finite_midpoint_matches_transported_density(self):
        # y = pi / log 2 maps to x = 0
        q = 2
        y = math.pi / math.log(q)
        lhs = local_spectral(P(q), 1)(y)
        rhs = plancherel(q, 1)(0.0) * dx_dy_abs(y, q)
        assert lhs == pytest.approx(rhs, abs=1e-14)
        assert satake_x_of_y(y, q) == pytest.approx(0.0, abs=1e-14)

    def test_archimedean_place_takes_sign_plus_one_only(self):
        # The sign character is even: its sign at infinity is +1, and -1 is
        # refused rather than read as +1.
        with pytest.raises(ValueError):
            local_spectral(ARCH, -1)

    def test_window_domain_enforced(self):
        with pytest.raises(DomainError):
            local_spectral(P(2), 1)(10.0)
        with pytest.raises(DomainError):
            local_spectral(ARCH, 1)(-0.5)

    def test_formula_symmetries(self):
        for q in (2, 5):
            window = 2.0 * math.pi / math.log(q)
            for sign in (1, -1):
                formula = local_spectral(P(q), sign).kernel  # unchecked: all of R
                for y in (0.3 * window, 0.8 * window):
                    base = formula(y)
                    assert formula(y + 2.0 * window) == pytest.approx(base, abs=1e-14)
                    assert formula(-y) == pytest.approx(base, abs=1e-14)


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
                density = local_spectral(P(q), sign)
                full = integrate_density(density, 0.0, density.hi, 1e-10).value
                assert full == pytest.approx(1.0, abs=1e-8)
                half = integrate_density(density, 0.0, density.hi / 2, 1e-10).value
                mu_right = integrate_density(plancherel(q, sign), 0.0, 2.0, 1e-10).value
                assert half == pytest.approx(mu_right, abs=1e-8)


class TestSpectralPairing:
    def test_zero_function(self):
        res = spectral_pairing({ARCH: (lambda y: 0.0, (1.0, 2.0))}, TRIVIAL)
        assert res.value == 0.0

    def test_single_arch_place_vs_trapezoid_oracle(self):
        res = spectral_pairing({ARCH: (lambda y: 1.0, (1.0, 2.0))}, TRIVIAL, tol=1e-12)
        ys = np.linspace(1.0, 2.0, 1_000_001)
        # numpy 2.0 renamed trapz to trapezoid; numpy 1.x has only trapz.
        trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        oracle = float(trapezoid(scipy_arch_density(ys), ys))
        assert res.value == pytest.approx(oracle, abs=1e-8)

    def test_archimedean_support_past_the_gamma_overflow(self):
        # The gamma-product weight overflowed from y = 452.5.
        res = spectral_pairing({ARCH: (lambda y: 1.0, (0.0, 500.0))}, TRIVIAL)
        assert math.isfinite(res.value)
        assert res.value == pytest.approx(500.0 / math.pi, rel=0.01)

    def test_product_factorizes(self):
        fin = P(3)
        window = 2.0 * math.pi / math.log(3.0)
        fns = {
            ARCH: (lambda y: 1.0, (0.5, 1.5)),
            fin: (lambda y: 1.0, (0.0, window)),
        }
        chi5 = DirichletCharacter.quadratic(5)  # sign -1 at 3
        combined = spectral_pairing(fns, chi5, tol=1e-11)
        arch_only = spectral_pairing({ARCH: fns[ARCH]}, chi5, tol=1e-11)
        fin_only = spectral_pairing({fin: fns[fin]}, chi5, tol=1e-11)
        assert combined.value == pytest.approx(arch_only.value * fin_only.value, rel=1e-9)

    def test_each_finite_place_takes_the_density_of_its_sign(self):
        # chi_13 is -1 at 2 and +1 at 3.  The constant 1 on the half window
        # [0, pi / log q] pairs to the mass of [0, 2] under mu_q^sign: 0.5 for
        # mu_2^- and 0.8910 for mu_3^+, where the other signs give 0.9377
        # and 0.5.
        chi13 = DirichletCharacter.quadratic(13)
        for q, sign, value, other in ((2, -1, 0.5, 0.9377), (3, 1, 0.8910, 0.5)):
            fns = {P(q): (lambda y: 1.0, (0.0, math.pi / math.log(q)))}
            got = spectral_pairing(fns, chi13, tol=1e-12).value
            mass = integrate_density(plancherel(q, sign), 0.0, 2.0, 1e-12).value
            assert got == pytest.approx(mass, abs=1e-9)
            assert got == pytest.approx(value, abs=1e-4)
            assert integrate_density(plancherel(q, -sign), 0.0, 2.0).value == pytest.approx(other, abs=1e-4)

    def test_rejects_noncompact_support(self):
        with pytest.raises(DomainError):
            spectral_pairing({ARCH: (lambda y: 1.0, (0.0, math.inf))}, TRIVIAL)

    def test_rejects_support_outside_window(self):
        with pytest.raises(DomainError):
            spectral_pairing({P(2): (lambda y: 1.0, (0.0, 100.0))}, TRIVIAL)

    @pytest.mark.parametrize("place", [ARCH, P(2)], ids=["arch", "p2"])
    @pytest.mark.parametrize(
        "support",
        [(2.0, 1.0), (math.nan, 1.0), (0.5, math.nan), (-0.5, 1.0), (math.inf, math.inf)],
        ids=["reversed", "nan_a", "nan_b", "negative", "inf"],
    )
    def test_one_support_rule_at_every_place(self, place, support):
        # Reversed, NaN, negative or unbounded supports raise DomainError at
        # an archimedean place as at a finite one: no signed integral.
        with pytest.raises(DomainError):
            spectral_pairing({place: (lambda y: 1.0, support)}, TRIVIAL)

    def test_edge_tolerance_at_zero(self):
        # A support starting within the edge tolerance below 0 is accepted.
        fns = {ARCH: (lambda y: 1.0, (-1e-10, 1.0))}
        assert spectral_pairing(fns, TRIVIAL).value > 0.0


def unit_domain_density(kernel, cos_substitution=True):
    return Density(-2.0, 2.0, kernel, "test", cos_substitution=cos_substitution)


class TestCosSubstitution:
    """`integrate_density` integrates a semicircle-type density in theta."""

    def test_semicircle_quarter(self):
        # closed form: integral of sqrt(4 - x^2) over [0, 2] is pi
        density = unit_domain_density(lambda x: math.sqrt(max(4.0 - x * x, 0.0)))
        res = integrate_density(density, 0.0, 2.0, 1e-12)
        assert res.value == pytest.approx(math.pi, abs=1e-12)

    def test_full_semicircle_mass(self):
        res = integrate_density(MU_ST, -2.0, 2.0, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_outside_square_bracket(self):
        with pytest.raises(DomainError):
            integrate_density(unit_domain_density(lambda x: 1.0), -3.0, 1.0)

    def test_substitution_beats_naive_rule_at_endpoint(self):
        # The raw adaptive rule needs far more panels for the sqrt endpoint.
        f = lambda x: math.sqrt(max(4.0 - x * x, 0.0))
        sub = integrate_density(unit_domain_density(f), -2.0, 2.0, 1e-12)
        naive = integrate_density(unit_domain_density(f, cos_substitution=False), -2.0, 2.0, 1e-9)
        assert sub.subdivisions < naive.subdivisions
        assert sub.value == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_theta_integrand_is_the_substituted_kernel(self):
        for theta in (0.0, 0.3, 1.0, 2.5, math.pi):
            want = MU_ST.kernel(2.0 * math.cos(theta)) * 2.0 * math.sin(theta)
            assert theta_integrand(MU_ST)(theta) == want


class TestReversedBounds:
    """One rule for every kind of density: reversed bounds give the signed
    integral, as `integrate` does."""

    @pytest.mark.parametrize(
        "density, a, b",
        [(MU_ST, -1.0, 1.0), (plancherel(3, -1), -2.0, 0.5),
         (local_spectral(P(3), 1), 1.0, 2.0), (local_spectral(P(2), -1), 0.0, 9.0)],
        ids=["mu_ST", "mu_3-", "lambda_3+", "lambda_2-"],
    )
    def test_reversed_bounds_negate(self, density, a, b):
        forward = integrate_density(density, a, b, 1e-11).value
        backward = integrate_density(density, b, a, 1e-11).value
        assert forward > 0.0
        assert backward == pytest.approx(-forward, abs=1e-14)

    @pytest.mark.parametrize(
        "density, a, b",
        [(MU_ST, 3.0, 1.0), (MU_ST, 1.0, -2.5), (local_spectral(P(3), 1), 10.0, 1.0),
         (local_spectral(P(3), 1), 1.0, -0.5), (MU_ST, math.nan, 1.0)],
    )
    def test_either_endpoint_outside_the_domain_is_rejected(self, density, a, b):
        with pytest.raises(DomainError, match="is not inside the domain"):
            integrate_density(density, a, b)


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
            local_spectral(ARCH, 1).mass()

    def test_archimedean_tail_limit(self):
        # the density tends to 1/pi at high spectral parameter
        assert local_spectral(ARCH, 1)(200.0) == pytest.approx(1.0 / math.pi, abs=2e-5)

    def test_infinite_endpoints_rejected_by_quadrature(self):
        from rtflab.quadrature import integrate

        with pytest.raises(ValueError):
            integrate(lambda y: 0.0, 0.0, math.inf, 1e-8)


def per_call_semicircle(x):
    """The semicircle density, written out."""
    return math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)


def per_call_plancherel(x, q, sign):
    """The per-prime density with every constant recomputed per call."""
    a = math.sqrt(q) + 1.0 / math.sqrt(q)
    base = per_call_semicircle(x)
    if sign == 1:
        return (q - 1.0) / (a - x) ** 2 * base
    return (q + 1.0) / (a * a - x * x) * base


def per_call_finite(y, q, sign):
    """The finite-place formula with every constant recomputed per call: the
    spherical factor and its sign twist at s = 1/2 +- iy/2, each local factor
    by its own complex power."""
    s, nu, chi = complex(0.5), 1j * y, complex(sign)
    twisted = local_l_character(s + nu / 2.0, chi, q) * local_l_character(s - nu / 2.0, chi, q)
    num = (local_l_spherical(s, nu, q) * twisted / local_l_character(1.0, chi, q)).real
    kernel = 2.0 - 2.0 * math.cos(y * math.log(q))
    return num * math.log(q) / (4.0 * math.pi) * kernel


class TestHoistedConstantsBitIdentical:
    """Density closures compute their constants once; every value must be
    the same float as the per-call formula."""

    POINTS = 10_000

    def test_semicircle(self):
        fn = sato_tate().fn
        for x in np.linspace(-2.0, 2.0, self.POINTS).tolist():
            assert fn(x) == per_call_semicircle(x)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_plancherel(self, q, sign):
        fn = plancherel(q, sign).fn
        for x in np.linspace(-2.0, 2.0, self.POINTS).tolist():
            assert fn(x) == per_call_plancherel(x, q, sign)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_finite_spectral(self, q, sign):
        place = FinitePlace(f"q{q}", q)
        density = local_spectral(place, sign)
        ys = np.linspace(density.lo, density.hi, self.POINTS).tolist()
        assert (ys[0], ys[-1]) == (0.0, 2.0 * math.pi / math.log(q))
        for y in ys:
            value = density.fn(y)
            assert value == density.kernel(y)
            assert value == per_call_finite(y, q, sign)
        # The symmetry check evaluates the kernel off the window: at y = 0,
        # at negative y and beyond the window.
        window = ys[-1]
        outside = [0.0, -0.0] + [s * y + shift for y in ys[1::10]
                                 for s, shift in ((-1.0, 0.0), (1.0, window), (1.0, 2.0 * window))]
        for y in outside:
            assert density.kernel(y) == per_call_finite(y, q, sign)

    def test_finite_kernel_calls_nothing_in_local_factors(self, monkeypatch):
        densities = [local_spectral(FinitePlace(f"q{q}", q), sign) for q in (2, 9) for sign in (1, -1)]

        def refuse(*args, **kwargs):
            raise AssertionError("the lambda kernel called into local_factors")

        from rtflab import measures

        for name, value in vars(local_factors).items():
            if callable(value) and getattr(value, "__module__", None) == local_factors.__name__:
                monkeypatch.setattr(local_factors, name, refuse)
                if hasattr(measures, name):
                    monkeypatch.setattr(measures, name, refuse)
        for density in densities:
            for y in np.linspace(0.0, density.hi, 101).tolist():
                assert density(y) >= 0.0

    def test_archimedean(self):
        # The weight reads the gamma ratio of the orbit factor; the product of
        # Lanczos gammas it replaced agrees to 1.9e-14 relative on [0, 20].
        fn = local_spectral(ARCH, 1).fn
        for y in np.linspace(0.0, 20.0, 1_000).tolist():
            assert fn(y) == pytest.approx(lambda_inf_gamma_product(y), rel=1e-13, abs=0.0)

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
