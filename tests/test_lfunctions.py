import math

import mpmath
import pytest

from rtflab import oracles
from rtflab.characters import DirichletCharacter
from rtflab.errors import PoleError
from rtflab.lfunctions import _INV_ZETA_HAT2_JET, _hurwitz_d2_at_0, edge_coefficients, laurent_at_1
from rtflab.oracles import (
    _DPS,
    _l_fin_mp,
    central_series_function,
    completed_l,
    extract_series,
    laurent_at_1_two_widths,
)
from rtflab.special import EULER_GAMMA

TRIVIAL = DirichletCharacter.trivial()
CHI5 = DirichletCharacter.quadratic(5)
CHI8 = DirichletCharacter.quadratic(8)


def _even_primitive_quadratic(m: int) -> bool:
    try:
        chi = DirichletCharacter.quadratic(m)
    except ValueError:
        return False
    return chi.order() == 2 and chi.is_even() and chi.is_primitive()


class TestEvaluators:
    def test_zeta_classical_values(self):
        # zeta(2) = pi**2/6 gives Lambda_zeta(2) = pi/6, and zeta(-1) = -1/12
        # with Gamma(-1/2) = -2 sqrt(pi) gives Lambda_zeta(-1) = pi/6: the
        # reflected half plane meets the classical value
        assert completed_l(2.0, TRIVIAL) == pytest.approx(math.pi / 6.0, abs=1e-14)
        assert completed_l(-1.0, TRIVIAL) == pytest.approx(math.pi / 6.0, abs=1e-14)
        with mpmath.workdps(_DPS):
            assert complex(_l_fin_mp(mpmath.mpc(-1), TRIVIAL)) == pytest.approx(-1.0 / 12.0, abs=1e-15)

    @pytest.mark.parametrize(
        "chi, values",
        [
            (CHI5, [0, 1, -1, -1, 1]),
            (CHI8, [0, 1, 0, -1, 0, -1, 0, 1]),
            (DirichletCharacter.quadratic(12), [0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1]),
            (DirichletCharacter.quadratic(13), [0, 1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, 1]),
        ],
        ids=["quad5", "quad8", "quad12", "quad13"],
    )
    def test_finite_part_against_mpmath_dirichlet(self, chi, values):
        # the unit-and-sign sum of _l_fin_mp against mpmath's periodic
        # Dirichlet series, whose values mod m are written out here
        for s in (2.5, 0.3, -1.7 + 2.0j, 0.5 + 14.0j, -3.5):
            with mpmath.workdps(_DPS):
                want = complex(mpmath.dirichlet(mpmath.mpc(s), values))
                got = complex(_l_fin_mp(mpmath.mpc(s), chi))
            assert got == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_lambda_zeta_against_its_definition(self):
        # Lambda_zeta(s) = pi**(-s/2) Gamma(s/2) zeta(s), written out, in both
        # half planes: completed_l reaches Re(s) < 1/2 through the functional
        # equation, this formula does not.
        for s in (2.5, 0.75, 0.3 + 1.0j, -1.2, -2.5 + 0.5j, 0.5 + 14.0j):
            with mpmath.workdps(_DPS):
                z = mpmath.mpc(s)
                want = complex(mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2) * mpmath.zeta(z))
            assert completed_l(s, TRIVIAL) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0, 1e-15, 1.0 + 5e-15j])
    def test_lambda_zeta_poles(self, s):
        with pytest.raises(PoleError):
            completed_l(s, TRIVIAL)

    def test_finite_part_at_one_matches_laurent_constant(self):
        # L(1, chi) = c0 / sqrt(m): the mpmath digamma sum against Lerch's formula
        for chi in (CHI5, CHI8):
            want = laurent_at_1(chi).c0 / math.sqrt(chi.modulus)
            with mpmath.workdps(_DPS):
                got = complex(_l_fin_mp(mpmath.mpc(1), chi))
            assert got.real == pytest.approx(want, abs=1e-12)

    def test_completed_l_functional_equation(self):
        # Root number 1: the half plane Re(s) < 1/2, read off Lambda(1 - s),
        # matches the Hurwitz-zeta finite part evaluated at s itself.
        for chi in (TRIVIAL, CHI5, CHI8):
            m = chi.modulus
            for s in (0.25, 0.3 - 0.4j, -0.6 + 0.3j, -1.2, -1.7):
                with mpmath.workdps(_DPS):
                    finite = complex(_l_fin_mp(mpmath.mpc(s), chi))
                direct = (m / math.pi) ** (s / 2) * complex(mpmath.gamma(s / 2)) * finite
                assert completed_l(s, chi) == pytest.approx(direct, rel=1e-12)

    def test_completed_l_trivial_zero_is_finite(self):
        # s = 0 through the functional equation: equals Lambda(1)
        v0 = completed_l(0.0, CHI5)
        v1 = completed_l(1.0, CHI5)
        assert v0 == pytest.approx(v1, abs=1e-12)
        golden = 2.0 / math.sqrt(5.0) * math.log((1.0 + math.sqrt(5.0)) / 2.0)  # L(1, chi_5)
        assert v1.real == pytest.approx(math.sqrt(5.0 / math.pi) * math.gamma(0.5) * golden, rel=1e-12)


class TestLaurent:
    def test_completed_zeta_residue_is_one(self):
        data = laurent_at_1(TRIVIAL)
        assert data.residue == pytest.approx(1.0, abs=1e-10)

    def test_c0_closed_form(self):
        # classical: constant term of the completed zeta at 1 is (gamma - log(4 pi))/2
        data = laurent_at_1(TRIVIAL)
        assert data.c0 == pytest.approx((EULER_GAMMA - math.log(4.0 * math.pi)) / 2.0, abs=1e-11)

    def test_trivial_c0_literal_matches_mpmath(self):
        with mpmath.workdps(_DPS):
            a = (mpmath.digamma(mpmath.mpf(0.5)) - mpmath.log(mpmath.pi)) / 2
            want = float(mpmath.euler + a)
        assert laurent_at_1(TRIVIAL).c0 == want

    def test_trivial_c1_does_not_compute_gamma1(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("gamma_1 computed by quadrature")

        monkeypatch.setattr(mpmath, "stieltjes", boom)
        got = laurent_at_1.__wrapped__(TRIVIAL).c1
        monkeypatch.undo()
        with mpmath.workdps(30):
            a = (mpmath.digamma(mpmath.mpf(0.5)) - mpmath.log(mpmath.pi)) / 2
            b = mpmath.psi(1, mpmath.mpf(0.5)) / 4
            want = float(-mpmath.stieltjes(1) + a * mpmath.euler + (a * a + b) / 2)
        assert got == want

    def test_hurwitz_second_derivative_against_mpmath(self):
        # The bound stated in the docstring: 1.71e-14 absolute, worst at x = 0.425.
        with mpmath.workdps(_DPS):
            for i in range(1, 401):
                x = i / 400
                want = float(mpmath.zeta(0, x, 2))
                assert abs(_hurwitz_d2_at_0(x) - want) <= 2e-14, x

    def test_quadratic_laurent_against_the_mpmath_formula(self):
        # Lerch's formula and zeta''(0, a/m) at working precision, the route
        # laurent_at_1 took before it summed floats.
        def mp_formula(xi):
            m = xi.modulus
            signs = [(a, 1 if k == 0 else -1) for a in range(m) if (k := xi.phase_index(a)) is not None]
            with mpmath.workdps(_DPS):
                dl0 = mpmath.fsum(s * mpmath.loggamma(mpmath.mpf(a) / m) for a, s in signs)
                d2 = mpmath.fsum(s * mpmath.zeta(0, mpmath.mpf(a) / m, 2) for a, s in signs)
                c1 = -d2 + (mpmath.log(m * mpmath.pi) + mpmath.euler) * dl0
                return float(2 * dl0), float(c1)

        conductors = [m for m in range(2, 61) if _even_primitive_quadratic(m)]
        assert conductors == [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44, 53, 56, 57, 60]
        for m in conductors:
            got = laurent_at_1(DirichletCharacter.quadratic(m))
            for value, want in zip((got.c0, got.c1), mp_formula(DirichletCharacter.quadratic(m))):
                assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), m
            assert got.residue == 0.0

    def test_quadratic_c0_within_4e_16_and_c1_within_1e_13(self):
        # c0 = 2 L'(0) by the reflection form against 40-digit Lerch sums, for
        # every even primitive quadratic conductor <= 100; the lgamma sum was
        # up to 1.9e-15 relative off.
        conductors = [m for m in range(2, 101) if _even_primitive_quadratic(m)]
        assert len(conductors) == 30
        worst = 0.0
        for m in conductors:
            xi = DirichletCharacter.quadratic(m)
            signs = [(a, 1 if k == 0 else -1) for a in range(m) if (k := xi.phase_index(a)) is not None]
            with mpmath.workdps(40):
                dl0 = mpmath.fsum(s * mpmath.loggamma(mpmath.mpf(a) / m) for a, s in signs)
                d2 = mpmath.fsum(s * mpmath.zeta(0, mpmath.mpf(a) / m, 2) for a, s in signs)
                c1 = -d2 + (mpmath.log(m * mpmath.pi) + mpmath.euler) * dl0
                got = laurent_at_1(xi)
                worst = max(worst, float(abs((got.c0 - 2 * dl0) / (2 * dl0))))
                assert abs(got.c1 - c1) <= 1e-13 * max(1, abs(c1)), m
        assert worst <= 4e-16

    def test_two_widths_agree(self):
        for xi in (TRIVIAL, CHI5, CHI8):
            a, b = laurent_at_1_two_widths(xi)
            assert abs(a.residue - b.residue) <= 1e-7
            assert abs(a.c0 - b.c0) <= 1e-7
            assert abs(a.c1 - b.c1) <= 1e-7

    def test_nontrivial_residue_zero_and_c0_value(self):
        data = laurent_at_1(CHI5)
        assert data.residue == 0.0
        assert data.c0 == pytest.approx(completed_l(1.0, CHI5).real, abs=1e-10)

    def test_c1_matches_independent_derivative(self):
        # c1 = d/ds completed_l at s=1: Richardson-extrapolated central
        # differences of the raw mpmath formula at 50 digits.
        data = laurent_at_1(CHI5)
        with mpmath.workdps(50):
            def f(s):
                return (mpmath.mpf(5) / mpmath.pi) ** (s / 2) * mpmath.gamma(s / 2) * (
                    mpmath.mpf(5) ** -s
                    * mpmath.fsum(
                        {1: 1, 2: -1, 3: -1, 4: 1}[a] * mpmath.zeta(s, mpmath.mpf(a) / 5)
                        for a in (1, 2, 3, 4)
                    )
                )
            diffs = []
            for h in (mpmath.mpf("1e-3"), mpmath.mpf("5e-4"), mpmath.mpf("2.5e-4")):
                diffs.append((f(1 + h) - f(1 - h)) / (2 * h))
            r1 = [(4 * diffs[i + 1] - diffs[i]) / 3 for i in range(2)]
            ref = float(mpmath.re((16 * r1[1] - r1[0]) / 15))
        assert data.c1 == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("xi", [TRIVIAL, CHI5], ids=["trivial", "chi5"])
    def test_two_widths_share_their_nodes(self, monkeypatch, xi):
        # Widths 1e-2 and 5e-3 share three of their four levels: 5 levels,
        # two points each, and both fits equal two plain stencil fits.
        from functools import partial

        honest = oracles._completed_l_mp
        pole = 1 if xi == TRIVIAL else 0
        plain = [extract_series(partial(honest, chi=xi), 1.0, pole, w) for w in (1e-2, 5e-3)]
        calls = []

        def counted(s, chi):
            calls.append(s)
            return honest(s, chi)

        monkeypatch.setattr(oracles, "_completed_l_mp", counted)
        first, second = laurent_at_1_two_widths(xi)
        assert len(calls) == 10
        for got, fit in ((first, plain[0]), (second, plain[1])):
            want = ([0.0] * (1 - pole) + fit)[:3]
            assert (got.residue, got.c0, got.c1) == tuple(want)

    def test_disagreement_raises(self):
        # A function with a branch point at the expansion center defeats the
        # polynomial stencil model, so the two widths disagree by more than
        # the 1e-7 that `rtf.laurent_two_widths` allows.
        bad = lambda s: abs(s - 1.0) ** 0.5
        first, second = (extract_series(bad, 1.0, 1, w)[:3] for w in (1e-2, 5e-3))
        assert max(abs(x - y) for x, y in zip(first, second)) > 1e-7


class TestEdgeCoefficients:
    def test_trivial_leading_coefficient_closed_form(self):
        # c_minus2 = 4 / Lambda_zeta(2) = 24 / pi (residues of both factors are -2)
        coeffs = edge_coefficients(TRIVIAL)
        assert coeffs.c_minus2 == pytest.approx(24.0 / math.pi, abs=1e-10)

    def test_quadratic_is_regular(self):
        coeffs = edge_coefficients(CHI5)
        assert abs(coeffs.c_minus2) <= 1e-12
        assert abs(coeffs.c_minus1) <= 1e-12
        direct = complex(central_series_function(CHI5)(-1.0)).real
        assert coeffs.c_zero == pytest.approx(direct, abs=1e-10)

    def test_reconstruction_near_pole(self):
        coeffs = edge_coefficients(TRIVIAL)
        f = central_series_function(TRIVIAL)
        h = 0.01
        recon = coeffs.c_minus2 / h**2 + coeffs.c_minus1 / h + coeffs.c_zero
        direct = complex(f(-1.0 + h)).real
        assert abs(direct - recon) / abs(direct) <= 1e-4

    @pytest.mark.parametrize("m", [5, 8, 12, 13, 17, 21, 24, 28, 29, 33])
    def test_absent_pole_gives_positive_zeros(self, m):
        # A nontrivial eta has residue 0, so orders -2 and -1 vanish; both are
        # +0.0, since a -0.0 carries into the constants of orders 2 and 1.
        coeffs = edge_coefficients(DirichletCharacter.quadratic(m))
        assert (coeffs.c_minus2, coeffs.c_minus1) == (0.0, 0.0)
        assert math.copysign(1.0, coeffs.c_minus2) == math.copysign(1.0, coeffs.c_minus1) == 1.0


class TestExtractSeries:
    def test_polynomial_exact(self):
        f = lambda s: 3.0 + 2.0 * (s - 1.0) + 0.5 * (s - 1.0) ** 2 - (s - 1.0) ** 3
        a = extract_series(f, 1.0, 0, 1e-2)
        assert a[0] == pytest.approx(3.0, abs=1e-12)
        assert a[1] == pytest.approx(2.0, abs=1e-10)
        assert a[2] == pytest.approx(0.5, abs=1e-8)
        assert a[3] == pytest.approx(-1.0, abs=1e-6)

    def test_simple_pole(self):
        f = lambda s: 7.0 / (s - 2.0) + 1.5
        a = extract_series(f, 2.0, 1, 1e-2)
        assert a[0] == pytest.approx(7.0, abs=1e-12)
        assert a[1] == pytest.approx(1.5, abs=1e-11)

    @pytest.mark.parametrize("width", [oracles._STENCIL_WIDTH, oracles._CHECK_WIDTH])
    def test_cached_inverse_matches_a_fresh_solve(self, width):
        levels = oracles._STENCIL_LEVELS
        with mpmath.workdps(_DPS):
            hs = [mpmath.mpf(width) / 2**i for i in range(levels)]
            v = mpmath.matrix([[(h * h) ** j for j in range(levels)] for h in hs])
            # exp's even and odd parts, as `extract_series` samples them
            for rhs in ([mpmath.cosh(h) for h in hs], [mpmath.sinh(h) / h for h in hs]):
                fresh = mpmath.lu_solve(v, mpmath.matrix(rhs))
                cached = oracles._stencil_inverse(width) * mpmath.matrix(rhs)
                assert all(abs(fresh[j] - cached[j]) <= 1e-25 * abs(fresh[j]) for j in range(levels))
        # exp's Taylor coefficients at 0 are 1/k!
        a = extract_series(mpmath.exp, 0.0, 0, width)
        for k, ak in enumerate(a[:6]):
            assert ak == pytest.approx(1.0 / math.factorial(k), rel=1e-12, abs=1e-12)


class TestEdgeClosedForms:
    def test_inverse_zeta_hat2_jet_literal_matches_mpmath(self):
        with mpmath.workdps(_DPS):
            z0, z1, z2 = (mpmath.zeta(2, 1, k) for k in range(3))
            A = (mpmath.digamma(1) - mpmath.log(mpmath.pi)) / 2 + z1 / z0
            B = mpmath.psi(1, 1) / 4 + z2 / z0 - (z1 / z0) ** 2
            inv = 1 / (mpmath.pi ** -1 * mpmath.gamma(1) * z0)
            want = tuple(float(inv * c) for c in (1, A, (A * A - B) / 2))
        assert _INV_ZETA_HAT2_JET == want

    def test_trivial_coefficients_against_derivative_closed_forms(self):
        # Squaring the zeta Laurent data at the edge and dividing by the
        # completed zeta at 2 gives closed forms for all three coefficients:
        #   c_-2 = 4/z,  c_-1 = 4 (z'/z - C0)/z,
        #   c_0  = (2 C1 + C0^2 - 4 C0 z'/z + 4 ((z'/z)^2 - z''/(2 z))) / z
        # with z = zeta_hat(2) and C0, C1 the Laurent data at 1.
        with mpmath.workdps(40):
            zc = lambda s: mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s)
            z2 = float(zc(2))
            r = float(mpmath.diff(zc, 2) / zc(2))
            h = float(mpmath.diff(zc, 2, 2) / (2 * zc(2)))
        data = laurent_at_1(TRIVIAL)
        coeffs = edge_coefficients(TRIVIAL)
        assert coeffs.c_minus2 == pytest.approx(4.0 / z2, abs=1e-10)
        assert coeffs.c_minus1 == pytest.approx(4.0 * (r - data.c0) / z2, abs=1e-10)
        closed = (2.0 * data.c1 + data.c0**2 - 4.0 * data.c0 * r + 4.0 * (r * r - h)) / z2
        assert coeffs.c_zero == pytest.approx(closed, abs=1e-9)


class TestClosedFormsAgainstStencil:
    """The closed forms against the stencil fits, the independent route."""

    @pytest.mark.parametrize("m", [None, 5, 8, 12, 13, 21, 24, 28, 29, 40, 41, 56, 57, 60, 61])
    def test_laurent(self, m):
        xi = TRIVIAL if m is None else DirichletCharacter.quadratic(m)
        closed = laurent_at_1(xi)
        fitted = laurent_at_1_two_widths(xi)[1]
        assert abs(closed.residue - fitted.residue) <= 1e-12
        assert abs(closed.c0 - fitted.c0) <= 1e-12
        assert abs(closed.c1 - fitted.c1) <= 1e-12

    @pytest.mark.parametrize("m", [1, 5, 13])
    def test_edge_coefficients(self, m):
        xi = TRIVIAL if m == 1 else DirichletCharacter.quadratic(m)
        c = edge_coefficients(xi)
        fitted = extract_series(central_series_function(xi), -1.0, 2, 5e-3)[:3]
        scale = max(abs(a) for a in fitted)
        for closed, a in zip((c.c_minus2, c.c_minus1, c.c_zero), fitted):
            assert abs(closed - a) <= 1e-12 * scale


class TestUnsupportedCharacters:
    # Complex even primitive (order 6 mod 13), odd quadratic mod 3 and an
    # even cubic character mod 7: none has the real data the closed forms use.
    @pytest.mark.parametrize(
        "chi",
        [DirichletCharacter(13, (2,)), DirichletCharacter.quadratic(3), DirichletCharacter(7, (2,))],
        ids=["order6_mod13", "odd_quadratic_mod3", "cubic_mod7"],
    )
    def test_rejected(self, chi):
        from rtflab.fields import LevelIdeal
        from rtflab.rtf_constants import spectral_edge_constant

        with pytest.raises(ValueError):
            laurent_at_1(chi)
        with pytest.raises(ValueError):
            edge_coefficients(chi)
        # root number 1 holds only for the characters the closed forms take,
        # so the functional equation and the constants refuse the rest too
        with pytest.raises(ValueError):
            completed_l(2.0, chi)
        with pytest.raises(ValueError):
            spectral_edge_constant(LevelIdeal.unit(), chi, 0)

    def test_imprimitive_trivial_character_is_rejected(self):
        # The trivial character is the one mod 1; trivial(6) would silently
        # pick up the Euler factors at 2 and 3 in the stencil routes.
        chi = DirichletCharacter.trivial(6)
        for route in (laurent_at_1, edge_coefficients, laurent_at_1_two_widths, central_series_function):
            with pytest.raises(ValueError):
                route(chi)
        with pytest.raises(ValueError):
            completed_l(2.0, chi)


class TestHotPath:
    def test_constants_do_not_use_the_stencil(self, monkeypatch, capsys):
        from rtflab import cli, oracles

        def boom(*args, **kwargs):
            raise RuntimeError("stencil route reached from the constants path")

        # Every stencil fit goes through `oracles._fit_series`, which the
        # oracles call by its module-level name.
        monkeypatch.setattr(oracles, "_fit_series", boom)
        assert edge_coefficients(DirichletCharacter.quadratic(13)).c_zero > 0.0
        assert cli.main(["constants", "--n", "2^2*3", "--eta", "quad:5"]) == 0
        capsys.readouterr()

    def test_the_patch_reaches_every_stencil_fit(self, monkeypatch):
        # The test above would pass vacuously if an oracle fitted its
        # stencils without going through the patched name.
        from rtflab import oracles

        def boom(*args, **kwargs):
            raise RuntimeError("stencil reached")

        monkeypatch.setattr(oracles, "_fit_series", boom)
        with pytest.raises(RuntimeError, match="stencil reached"):
            oracles.laurent_at_1_two_widths(TRIVIAL)
        with pytest.raises(RuntimeError, match="stencil reached"):
            oracles.laurent_at_1_two_widths(CHI5)
        with pytest.raises(RuntimeError, match="stencil reached"):
            oracles.extract_series(mpmath.exp, 0.0, 0, 1e-2)
