import itertools
import math

import mpmath
import numpy as np
import pytest

from rtflab.characters import DirichletCharacter
from rtflab.errors import CapExceededError, DomainError, PoleError, RamifiedOverlapError
from rtflab.fields import LevelIdeal, RATIONALS
from rtflab.lfunctions import edge_coefficients, jet_product, laurent_at_1
from rtflab.measures import spectral_pairing
from rtflab import oracles
from rtflab.oracles import completed_l
from rtflab import rtf_constants as rtf
from rtflab.special import EULER_GAMMA

P = RATIONALS.place_for_prime
ARCH = RATIONALS.archimedean_places[0]


def L(spec):
    return LevelIdeal.from_map({P(p): e for p, e in spec.items()})


TRIVIAL = DirichletCharacter.trivial()
CHI5 = DirichletCharacter.quadratic(5)


# ---------------------------------------------------------------------------
# oracles


def taylor_by_polyfit(f, center, degree=6, radius=0.04, points=13):
    """Numerical Taylor coefficients by least-squares polynomial fit."""
    xs = np.linspace(-radius, radius, points)
    ys = np.array([f(center + x) for x in xs])
    coeffs = np.polyfit(xs, ys, degree)
    return coeffs[::-1]  # ascending order


def zeta_euler_maclaurin(s: float, cutoff: int = 100) -> float:
    """Independent zeta oracle: truncated series plus Euler-Maclaurin tail."""
    acc = sum(n**-s for n in range(1, cutoff + 1))
    acc += cutoff ** (1.0 - s) / (s - 1.0) - 0.5 * cutoff**-s
    # B_2/2! s N^{-s-1} + B_4/4! s(s+1)(s+2) N^{-s-3}
    acc += (1.0 / 12.0) * s * cutoff ** (-s - 1.0)
    acc -= (1.0 / 720.0) * s * (s + 1.0) * (s + 2.0) * cutoff ** (-s - 3.0)
    return acc


def zeta_euler_product(s: float, n_primes: int = 10_000) -> float:
    primes = []
    cand = 2
    while len(primes) < n_primes:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    out = 1.0
    for p in primes:
        out /= 1.0 - p**-s
    return out


# ---------------------------------------------------------------------------


class TestLevelConstant:
    def test_squarefree_is_one(self):
        assert rtf.level_constant(L({2: 1, 3: 1, 7: 1})) == 1.0

    def test_exponent_two(self):
        assert rtf.level_constant(L({2: 2})) == pytest.approx(0.5)

    def test_exponent_three(self):
        assert rtf.level_constant(L({2: 3})) == pytest.approx(0.75)

    def test_mixed(self):
        expected = (1.0 - 1.0 / (9.0 - 3.0)) * (1.0 - 1.0 / 4.0)
        assert rtf.level_constant(L({3: 2, 2: 5})) == pytest.approx(expected)

    def test_inclusion_exclusion_brute_force(self):
        # subset expansion over the exponent >= 2 primes telescopes to the constant
        for combo in itertools.product(range(5), repeat=3):
            spec = {p: e for p, e in zip((2, 3, 5), combo) if e}
            if not spec:
                continue
            heavy = [(p, e) for p, e in spec.items() if e >= 2]
            total = 1.0
            for j in range(1, len(heavy) + 1):
                for subset in itertools.combinations(heavy, j):
                    term = (-1.0) ** j
                    for p, e in subset:
                        term *= (1.0 - 1.0 / p) ** (-1 if e == 2 else 0) / p**2
                    total += term
            assert abs(total - rtf.level_constant(L(spec))) <= 1e-12


class TestOrbitConstantAtEmptyS:
    """C_eta, the second-moment constant that `constants` prints, is the orbit
    constant with no place in S."""

    def test_nontrivial_residue_free(self):
        a = rtf.unipotent_orbit_constant({}, LevelIdeal.unit(), CHI5)
        b = rtf.unipotent_orbit_constant({}, L({2: 6}), CHI5)
        assert a == b == laurent_at_1(CHI5).c0

    def test_trivial_unit_level(self):
        laurent = laurent_at_1(TRIVIAL)
        expected = laurent.c0 + (EULER_GAMMA + 2.0 * math.log(2.0) - math.log(math.pi)) / 2.0
        got = rtf.unipotent_orbit_constant({}, LevelIdeal.unit(), TRIVIAL)
        assert isinstance(got, complex)  # as for every S and every character
        assert got == pytest.approx(expected, abs=1e-12)

    def test_log_growth(self):
        n = L({2: 3, 5: 1})
        delta = rtf.unipotent_orbit_constant({}, n, TRIVIAL) - rtf.unipotent_orbit_constant(
            {}, LevelIdeal.unit(), TRIVIAL
        )
        assert delta == pytest.approx(0.5 * math.log(n.norm()), abs=1e-12)


class TestRhoEnumeration:
    def test_unit_ideal(self):
        assert oracles.enumerate_rho(LevelIdeal.unit()) == [LevelIdeal.unit()]

    @pytest.mark.parametrize("spec", [{2: 2}, {2: 1, 3: 2}, {2: 3, 5: 1, 7: 2}])
    def test_every_divisor_once(self, spec):
        n = L(spec)
        divisors = oracles.enumerate_rho(n)
        assert len(divisors) == len(set(divisors)) == math.prod(e + 1 for e in spec.values())
        assert all(d.divides(n) for d in divisors)

    def test_product_order(self):
        # itertools.product over the depths at 2 and 3: index 4 is depth 2 at 2
        divisors = oracles.enumerate_rho(L({2: 2, 3: 1}))
        assert divisors[0] == LevelIdeal.unit()
        assert divisors[4] == L({2: 2})

    def test_cap(self, monkeypatch):
        # 10**6 assignments: refused before a single one is built
        def boom(*ranges):
            raise AssertionError("enumerated past the cap")

        monkeypatch.setattr(oracles.itertools, "product", boom)
        with pytest.raises(CapExceededError, match="1000000 > cap 100000"):
            oracles.enumerate_rho(L({p: 9 for p in (2, 3, 5, 7, 11, 13)}))


class TestFlatSection:
    def test_empty(self):
        assert oracles.flat_section_at_identity(LevelIdeal.unit(), TRIVIAL) == 1.0

    def test_depth_one_minus(self):
        assert CHI5.sign_at(P(2)) == -1
        got = oracles.flat_section_at_identity(L({2: 1}), CHI5)
        assert got == pytest.approx(-math.sqrt(2.0))

    def test_depth_two_plus(self):
        got = oracles.flat_section_at_identity(L({3: 2}), TRIVIAL)
        assert got == pytest.approx(2.0 * math.sqrt(2.0))


class TestEdgePlaceFactor:
    def test_minus_sign_depth_one_vanishes_at_edge(self):
        # the bracket q + 1 + sign(1 + q) collapses for sign = -1
        assert rtf.edge_place_factor(-1.0, 2, 1, -1) == pytest.approx(0.0, abs=1e-14)
        assert rtf.edge_place_jet(2, 1, -1)[0] == 0.0

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            rtf.edge_place_factor(1.0, 2, 1, 1)

    @pytest.mark.parametrize("k, sign", [(0, 1), (-1, 1), (1, 0), (2, 2)])
    def test_rejects_depth_below_one_and_signs_off_plus_minus_one(self, k, sign):
        with pytest.raises(ValueError):
            rtf.edge_place_factor(-0.5, 3, k, sign)
        with pytest.raises(ValueError):
            rtf.edge_place_jet(3, k, sign)
        if k < 1:
            with pytest.raises(ValueError):
                rtf.residue_place_factor(0.5, 3, k)
            with pytest.raises(ValueError):
                rtf.residue_place_jet(3, k)

    def test_depth_norm(self):
        assert rtf._depth_norm(3, 1) == 1.0
        assert rtf._depth_norm(3, 2) == rtf._depth_norm(3, 5) == math.sqrt(2.0)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_derivatives_match_finite_differences(self, q, k, sign):
        f = lambda nu: rtf.edge_place_factor(nu, q, k, sign).real
        h = 1e-4
        fd1 = (f(-1.0 + h) - f(-1.0 - h)) / (2.0 * h)
        fd2 = (f(-1.0 + h) - 2.0 * f(-1.0) + f(-1.0 - h)) / (h * h)
        _, d1, half_d2 = rtf.edge_place_jet(q, k, sign)
        d2 = 2.0 * half_d2
        assert abs(d1 - fd1) <= 1e-6 * max(1.0, abs(d1))
        assert abs(d2 - fd2) <= 1e-5 * max(1.0, abs(d2))

    def test_value_at_edge_closed_form(self):
        for q, k, sign in ((2, 1, 1), (3, 2, 1), (5, 4, -1)):
            direct = rtf.edge_place_factor(-1.0, q, k, sign).real
            assert rtf.edge_place_jet(q, k, sign)[0] == pytest.approx(direct, abs=1e-12)


class TestEdgeProductTaylor:
    def test_empty_assignment(self):
        assert oracles.edge_product_taylor(LevelIdeal.unit(), TRIVIAL) == (1.0, 0.0, 0.0)

    def test_single_place_first_order(self):
        t0, t1, t2 = oracles.edge_product_taylor(L({2: 2}), TRIVIAL)
        assert t1 == pytest.approx(rtf.edge_place_jet(2, 2, 1)[1], abs=1e-12)

        def f(nu):
            return rtf.edge_place_factor(nu, 2, 2, 1).real

        fit = taylor_by_polyfit(f, -1.0)
        assert t0 == pytest.approx(fit[0], abs=1e-8)
        assert t1 == pytest.approx(fit[1], rel=1e-6)
        assert t2 == pytest.approx(fit[2], rel=1e-6)

    def test_multi_place_vs_numeric_taylor(self):
        eta = DirichletCharacter.quadratic(13)
        assert [eta.sign_at(P(p)) for p in (2, 3, 5)] == [-1, 1, -1]
        for spec in ({2: 1, 3: 1}, {2: 2, 3: 1, 5: 1}, {2: 1, 3: 2, 5: 3}):
            n = L(spec)
            for d in oracles.enumerate_rho(n):
                if not 1 <= len(d.factors) <= 3:
                    continue
                places = [(p.q, k, eta.sign_at(p)) for p, k in d.factors]

                def f(nu):
                    acc = 1.0
                    for v in places:
                        acc *= rtf.edge_place_factor(nu, *v).real
                    return acc

                t0, t1, t2 = oracles.edge_product_taylor(d, eta)
                fit = taylor_by_polyfit(f, -1.0)
                scale = max(1.0, abs(t0), abs(t1), abs(t2))
                assert abs(t0 - fit[0]) <= 1e-6 * scale
                assert abs(t1 - fit[1]) <= 1e-6 * scale
                assert abs(t2 - fit[2]) <= 1e-6 * scale


class TestResidueFactors:
    def test_value_half_one_trivial_vanishes(self):
        assert oracles.residue_value_half_one(L({2: 1}), TRIVIAL) == 0.0

    def test_value_half_one_minus_sign(self):
        got = oracles.residue_value_half_one(L({2: 1}), CHI5)  # chi5(2) = -1
        expected = (-2.0) * 2.0**-0.5 / (1.0 - 0.5)
        assert got == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_derivatives_match_finite_differences(self, q, k):
        g = lambda z: rtf.residue_place_factor(z, q, k).real
        h = 1e-4
        fd1 = (g(h) - g(-h)) / (2.0 * h)
        fd2 = (g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)
        _, d1, half_d2 = rtf.residue_place_jet(q, k)
        assert abs(d1 - fd1) <= 1e-6 * max(1.0, abs(fd1))
        assert abs(2.0 * half_d2 - fd2) <= 1e-5 * max(1.0, abs(fd2))

    def test_place_factor_vanishes_at_zero(self):
        for q, k in ((2, 1), (3, 2), (5, 4)):
            assert abs(rtf.residue_place_factor(0.0, q, k)) <= 1e-15

    def test_product_derivatives_product_rule(self):
        # The jet product of the per-place jets against finite differences of
        # the product of the factors (D**(-z) = 1 over Q).
        places = [(2, 1), (3, 2)]
        f = lambda z: math.prod(rtf.residue_place_factor(z, *v) for v in places).real
        h = 1e-4
        fd1 = (f(h) - f(-h)) / (2.0 * h)
        fd2 = (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)
        _, d1, half_d2 = jet_product(rtf.residue_place_jet(*v) for v in places)
        assert d1 == pytest.approx(fd1, abs=1e-6)
        assert 2.0 * half_d2 == pytest.approx(fd2, abs=1e-5)

    def test_specializations_empty_assignment(self):
        # The empty product has value 1 and no z-dependence, and
        # epsilon(0) = 1 for the trivial character, so a(d) reduces to the
        # Laurent data: -2 r c1 + c0**2.
        unit = LevelIdeal.unit()
        assert oracles.residue_value_half_one(unit, TRIVIAL) == 1.0
        lau = laurent_at_1(TRIVIAL)
        expected = -2.0 * lau.residue * lau.c1 + lau.c0**2
        assert oracles.residual_term_constant(unit, TRIVIAL) == pytest.approx(expected, abs=1e-15)


class TestSpectralEdgeConstants:
    def test_unit_level_order_two_is_leading_coefficient(self):
        got = rtf.spectral_edge_constant(LevelIdeal.unit(), TRIVIAL, 2)
        assert got == pytest.approx(edge_coefficients(TRIVIAL).c_minus2, abs=1e-12)
        assert got == pytest.approx(24.0 / math.pi, abs=1e-9)

    def test_zero_contribution_of_minus_sign_assignments(self):
        # chi5(2) = chi5(3) = -1, so every nonempty assignment has vanishing
        # order-0 product and the sums reduce to the empty-assignment term.
        n = L({2: 2, 3: 1})
        got = rtf.spectral_edge_constant(n, CHI5, 0)
        empty_term = 2.0 * edge_coefficients(CHI5).c_zero  # (section + empty-flag) * c_zero
        assert got == pytest.approx(empty_term, abs=1e-10)

    def test_orders_vanish_for_regular_character(self):
        for order in (2, 1):
            v = rtf.spectral_edge_constant(L({2: 1}), CHI5, order)
            assert abs(v) <= 1e-10

    def test_growth_scan_polylog_envelope(self):
        # Empirical scan over N <= 1e6: all four constants stay finite and
        # inside a polylogarithmic envelope (frozen with 2x headroom),
        # consistent with subpolynomial growth in the norm.
        for eta in (TRIVIAL, CHI5):
            for a in range(0, 7):
                for b in range(0, 7):
                    spec = {p: e for p, e in zip((2, 3), (a, b)) if e}
                    n = L(spec)
                    if n.norm() > 10**6:
                        continue
                    for order in (2, 1, 0, -1):
                        y = rtf.spectral_edge_constant(n, eta, order)
                        assert math.isfinite(y)
                        assert abs(y) <= 16.0 * (1.0 + math.log(n.norm())) ** 6

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            rtf.spectral_edge_constant(LevelIdeal.unit(), TRIVIAL, 3)


EIGHT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


class TestFactorizedEdgeConstants:
    @pytest.mark.parametrize(
        "eta, spec",
        [
            ("trivial", {}),
            ("trivial", {2: 1, 3: 2, 5: 3}),
            # one level from each big level_scan family: 3**8 and 4**6 assignments
            ("trivial", {p: 2 for p in EIGHT_PRIMES[:8]}),
            ("trivial", {p: 3 for p in EIGHT_PRIMES[:6]}),
            ("quad:5", {2: 2, 3: 1}),
            ("quad:5", {2: 1, 3: 4, 7: 2, 11: 1}),
            ("quad:8", {3: 1}),
            ("quad:8", {p: 2 for p in EIGHT_PRIMES[1:]}),
            ("quad:12", {5: 2, 7: 1, 11: 3}),
            ("quad:13", {2: 2, 3: 1, 5: 4}),
            ("quad:13", {p: 3 for p in (2, 3, 5, 7, 11, 17)}),
        ],
    )
    def test_matches_assignment_enumeration(self, eta, spec):
        n = L(spec)
        chi = TRIVIAL if eta == "trivial" else DirichletCharacter.quadratic(int(eta[5:]))
        expected = oracles.edge_constants_by_enumeration(n, chi)
        for order in (2, 1, 0, -1):
            y = expected[order]
            got = rtf.spectral_edge_constant(n, chi, order)
            assert abs(got - y) <= 1e-12 * max(1.0, abs(y)), (order, got, y)

    def test_ramified_level_raises_for_every_order(self):
        for order in (2, 1, 0, -1):
            with pytest.raises(RamifiedOverlapError):
                rtf.spectral_edge_constant(L({5: 1}), CHI5, order)


class TestOrbitFactor:
    def test_archimedean_at_one(self):
        got = rtf.unipotent_orbit_factor({ARCH: 1.0 + 0.0j}, TRIVIAL)
        assert got == pytest.approx(-math.pi / 8.0, abs=1e-12)

    def test_trivial_sign_finite_factor_coincides(self):
        # for sign +1 the two displayed finite-factor forms are identical
        q, s = 3, 1.7 + 0.0j
        got = rtf.unipotent_orbit_factor({P(q): s}, TRIVIAL)
        up = q ** ((s + 1.0) / 2.0)
        expected = 1.0 / ((1.0 - 1.0 / up) * (1.0 - up))
        assert got == pytest.approx(expected, abs=1e-13)

    def test_stirling_decay(self):
        # the archimedean factor decays like -1/(2 s) along the reals
        for s in (1e3, 1e4):
            got = rtf.unipotent_orbit_factor({ARCH: complex(s)}, TRIVIAL)
            assert got.real * s == pytest.approx(-0.5, rel=2e-3)

    def test_pole_signaled(self):
        with pytest.raises(PoleError):
            rtf.unipotent_orbit_factor({P(2): -1.0 + 0.0j}, TRIVIAL)

    @pytest.mark.parametrize(
        "s",
        [50.0, 1e3, 1e9, 1e15, 1e20, 1e300, 60.0 + 80.0j, 1e15j, 40.0 + 30.0j, 49.0,
         -0.5, -2.0, -3.3, -7.9, -49.9, -3000.0, -3000.7, -1e6 - 0.3, -1e300,
         -10.0 + 1000.0j, -0.5 + 1e200j, -0.5 + 1e308j, -60.0 + 80.0j],
    )
    def test_archimedean_against_mpmath(self, s):
        # The series above |s| = 50 in the right half plane and the Lanczos
        # difference below it; the difference alone was 99% off at s = 1e15.
        # The left half plane reflects onto -s, where the gamma values overflow
        # (s = -3000) or lose every digit (-0.5 + 1e200j).
        got = rtf.unipotent_orbit_factor({ARCH: complex(s)}, TRIVIAL)
        with mpmath.workdps(40 + int(math.log10(abs(s)))):
            z = mpmath.mpc(s)
            want = -mpmath.gamma((z + 1) / 4) ** 2 / mpmath.gamma((z + 3) / 4) ** 2 / 8
            err = float(abs((mpmath.mpc(got) - want) / want))
        assert err <= (4e-16 if abs(s) >= 50 else 1e-14)

    def test_large_s_decays_like_minus_one_over_two_s(self):
        assert rtf.unipotent_orbit_factor({ARCH: 1e20 + 0.0j}, TRIVIAL) == -5e-21

    @pytest.mark.parametrize("s", [-1.0, -5.0, -9.0, -4001.0])
    def test_archimedean_pole(self, s):
        # Gamma((s+1)/4) has its poles at s = -1, -5, ...
        with pytest.raises(PoleError):
            rtf.unipotent_orbit_factor({ARCH: complex(s)}, TRIVIAL)

    @pytest.mark.parametrize("s", [-3.0, -7.0, -11.0, -4003.0])
    def test_archimedean_zero(self, s):
        # Gamma((s+3)/4) has its poles at s = -3, -7, ..., so the factor vanishes
        assert abs(rtf.unipotent_orbit_factor({ARCH: complex(s)}, TRIVIAL)) <= 1e-30

    @pytest.mark.parametrize("place, s", [(P(3), 3000.0)], ids=["finite-power-overflow"])
    def test_overflow_is_a_domain_error(self, place, s):
        with pytest.raises(DomainError, match=f"at {place.label} is not finite"):
            rtf.unipotent_orbit_factor({place: complex(s)}, TRIVIAL)


class TestOrbitConstant:
    def test_nontrivial_character_is_flat(self):
        values = []
        for s in (0.5, 1.0, 2.0, 3.5):
            for a_spec in ({}, {2: 1}, {3: 2}):
                values.append(
                    rtf.unipotent_orbit_constant(
                        {ARCH: complex(s), P(7): complex(s)}, L(a_spec), CHI5
                    )
                )
        spread = max(abs(v - values[0]) for v in values)
        assert spread <= 1e-10
        assert values[0] == pytest.approx(completed_l(1.0, CHI5).real, abs=1e-10)

    def test_trivial_character_log_growth(self):
        s_map = {ARCH: 2.0 + 0.0j}
        for spec in ({2: 1}, {2: 3, 5: 1}, {3: 2}):
            n = L(spec)
            delta = rtf.unipotent_orbit_constant(s_map, n, TRIVIAL) - rtf.unipotent_orbit_constant(
                s_map, LevelIdeal.unit(), TRIVIAL
            )
            assert delta == pytest.approx(0.5 * math.log(n.norm()), abs=1e-10)  # residue 1

    def test_finite_place_term(self):
        s = 1.4 + 0.0j
        base = rtf.unipotent_orbit_constant({ARCH: s}, LevelIdeal.unit(), TRIVIAL)
        with_q = rtf.unipotent_orbit_constant({ARCH: s, P(3): s}, LevelIdeal.unit(), TRIVIAL)
        expected = math.log(3.0) / (1.0 - 3.0 ** ((s.real + 1.0) / 2.0))  # residue 1
        assert (with_q - base).real == pytest.approx(expected, abs=1e-12)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="at p3 is not finite"):
            rtf.unipotent_orbit_constant(
                {ARCH: 2.0 + 0.0j, P(3): 3000.0 + 0.0j}, LevelIdeal.unit(), TRIVIAL
            )


class TestIntertwiningRatio:
    def test_empty_assignment_zeta_ratio(self):
        nu = 0.3
        got = oracles.intertwining_ratio(TRIVIAL, LevelIdeal.unit(), nu)
        em = zeta_euler_maclaurin(1.3) / zeta_euler_maclaurin(0.7)
        assert got.real == pytest.approx(em, abs=1e-9)
        # coarse Euler-product corroboration for the numerator
        euler = zeta_euler_product(1.3)
        assert abs(euler - zeta_euler_maclaurin(1.3)) / zeta_euler_maclaurin(1.3) <= 0.05

    def test_value_at_zero_is_minus_one(self):
        # chi**2 is principal, so the L-ratio is zeta(1+nu)/zeta(1-nu) -> -1
        assert oracles.intertwining_ratio(TRIVIAL, L({2: 2}), 0.0) == -1.0

    @pytest.mark.parametrize("nu", [0.0, 1e-14, -1e-14, 2e-14, 1e-10])
    @pytest.mark.parametrize("chi", [TRIVIAL, CHI5], ids=["trivial", "quad5"])
    def test_near_zero_against_mpmath(self, chi, nu):
        import mpmath as mp

        got = oracles.intertwining_ratio(chi, LevelIdeal.unit(), nu)
        with mp.workdps(30):
            if nu == 0:
                want = -1
            else:
                s = 1 + mp.mpf(nu)
                assert s - 1 == nu  # 1 + nu is exact at 30 digits
                want = mp.mpf(chi.modulus) ** -nu * mp.zeta(s) / mp.zeta(2 - s)
        assert got.imag == 0.0
        assert got.real == pytest.approx(float(want), rel=2.0**-50, abs=0.0)

    def test_rejects_a_character_that_is_not_real(self):
        chi = DirichletCharacter(5, (1,))  # order 4: chi**2 is not principal
        with pytest.raises(ValueError):
            oracles.intertwining_ratio(chi, LevelIdeal.unit(), 0.0)

    def test_involution(self):
        d = L({2: 2})
        for chi in (TRIVIAL, CHI5):
            for nu in (0.3, 0.2 + 0.5j):
                prod = oracles.intertwining_ratio(chi, d, nu) * oracles.intertwining_ratio(chi, d, -nu)
                assert prod == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_power_factor(self):
        # one active place of depth k contributes q**(-k nu)
        nu = 0.4
        with_places = oracles.intertwining_ratio(TRIVIAL, L({2: 2}), nu)
        empty = oracles.intertwining_ratio(TRIVIAL, LevelIdeal.unit(), nu)
        assert with_places.real == pytest.approx(empty.real * 2.0 ** (-2 * nu), rel=1e-12)

    def test_ramified_overlap(self):
        with pytest.raises(RamifiedOverlapError):
            oracles.intertwining_ratio(CHI5, L({5: 1}), 0.3)

    def test_denominator_zero_signaled(self):
        # 1 - nu = -2 is a trivial zero of zeta
        with pytest.raises(PoleError):
            oracles.intertwining_ratio(TRIVIAL, LevelIdeal.unit(), 3.0)

    def test_zeta_ratio_off_zero_against_mpmath(self):
        for nu in (0.3, -0.45 + 0.2j, 2.5, 1e-8, 0.7j):
            with mpmath.workdps(40):
                z = mpmath.mpc(nu)
                want = complex(mpmath.zeta(1 + z) / mpmath.zeta(1 - z))
            assert oracles.zeta_ratio(nu) == pytest.approx(want, rel=1e-14)

    def test_zeta_ratio_signals_the_trivial_zero(self):
        # zeta(1 - nu) = zeta(-2) = 0 exactly: a PoleError, not a ZeroDivisionError
        with pytest.raises(PoleError):
            oracles.zeta_ratio(3.0)


class TestKernelNormalization:
    def test_unit_level_single_arch(self):
        assert rtf.kernel_normalization(LevelIdeal.unit(), [ARCH]) == pytest.approx(-1.0)

    def test_prime_level(self):
        assert rtf.kernel_normalization(L({5: 1}), [ARCH]) == pytest.approx(-1.0 / 6.0)

    def test_even_s_is_positive(self):
        assert rtf.kernel_normalization(L({3: 1}), [ARCH, P(2)]) > 0.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            rtf.kernel_normalization(L({2: 1}), [ARCH, P(2)])

    @pytest.mark.parametrize("places, label", [([ARCH, ARCH], "inf"), ([ARCH, P(3), P(3)], "p3")])
    def test_repeated_place_rejected(self, places, label):
        # S is a set: counting a repeat would flip the sign (-1)**|S|.
        with pytest.raises(ValueError, match=f"{label} twice"):
            rtf.kernel_normalization(LevelIdeal.unit(), places)

    def test_overlap_is_ramified_overlap_error(self):
        # the same condition `rtflab constants` reports (exit 3)
        with pytest.raises(RamifiedOverlapError):
            rtf.kernel_normalization(L({2: 1, 3: 1}), [ARCH, P(3)])


class TestPredictedMomentAverage:
    def test_zero_function(self):
        res = rtf.predicted_moment_average(L({2: 1}), {ARCH: (lambda y: 0.0, (1.0, 2.0))}, CHI5)
        assert res.value == 0.0

    def test_squarefree_is_four_l_one_times_the_pairing(self):
        # L(1, chi_5) = 2 log(phi) / sqrt(5)
        fns = {ARCH: (lambda y: 1.0, (1.0, 2.0)), P(3): (lambda y: 1.0, (0.0, 1.0))}
        res = rtf.predicted_moment_average(L({2: 1, 7: 1}), fns, CHI5)
        pair = spectral_pairing(fns, CHI5)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert res.value == pytest.approx(4.0 * (2.0 / math.sqrt(5.0)) * math.log(golden) * pair.value,
                                          rel=1e-14)

    def test_exponent_two_halves_at_q2(self):
        fns = {ARCH: (lambda y: 1.0, (1.0, 2.0))}
        squarefree = rtf.predicted_moment_average(L({3: 1}), fns, CHI5)
        squared = rtf.predicted_moment_average(L({2: 2}), fns, CHI5)
        assert squared.value == pytest.approx(0.5 * squarefree.value, rel=1e-12)

    def test_trivial_character_is_a_pole(self):
        # L(s, chi_0) = zeta(s) has a pole at s = 1.
        with pytest.raises(PoleError):
            rtf.predicted_moment_average(L({3: 1}), {ARCH: (lambda y: 1.0, (1.0, 2.0))}, TRIVIAL)


class TestCharacterInput:
    """Every constants route takes the sign character itself and reads its
    Laurent and edge data from `lfunctions`."""

    ROUTES = [
        rtf.spectral_edge_constant,
        rtf.unipotent_orbit_factor,
        rtf.unipotent_orbit_constant,
        rtf.predicted_moment_average,
        spectral_pairing,
        oracles.edge_product_taylor,
        oracles.residual_term_constant,
        oracles.edge_constants_by_enumeration,
    ]

    @pytest.mark.parametrize("route", ROUTES, ids=lambda f: f.__name__)
    def test_takes_the_character(self, route):
        import inspect

        assert inspect.signature(route).parameters["eta"].annotation == "DirichletCharacter"

    @pytest.mark.parametrize(
        "chi",
        [DirichletCharacter.trivial(6), DirichletCharacter.quadratic(3)],
        ids=["imprimitive_trivial_mod6", "odd_quadratic_mod3"],
    )
    def test_rejects_what_the_closed_forms_do_not_cover(self, chi):
        # trivial(6) is not read as the trivial character mod 1: it would
        # drop the Euler factors at 2 and 3.
        n = L({7: 1})
        for order in (2, 1, 0, -1):
            with pytest.raises(ValueError):
                rtf.spectral_edge_constant(n, chi, order)
        with pytest.raises(ValueError):
            rtf.unipotent_orbit_constant({}, n, chi)
        with pytest.raises(ValueError):
            rtf.predicted_moment_average(n, {ARCH: (lambda y: 1.0, (1.0, 2.0))}, chi)
        with pytest.raises(ValueError):
            oracles.residual_term_constant(n, chi)
        with pytest.raises(ValueError):
            oracles.edge_constants_by_enumeration(n, chi)


class TestUnitLevelEdgeWiring:
    def test_unit_level_all_orders(self):
        # The single (empty) assignment has section 1 and empty-flag 1, with
        # order-0 product 1 and vanishing higher Taylor data, so the sums
        # collapse onto the edge coefficients with the documented weights.
        unit = LevelIdeal.unit()
        e = edge_coefficients(TRIVIAL)
        assert rtf.spectral_edge_constant(unit, TRIVIAL, 2) == pytest.approx(
            2.0 * 0.5 * e.c_minus2, abs=1e-12
        )
        assert rtf.spectral_edge_constant(unit, TRIVIAL, 1) == pytest.approx(
            2.0 * e.c_minus1, abs=1e-12
        )
        assert rtf.spectral_edge_constant(unit, TRIVIAL, 0) == pytest.approx(
            2.0 * e.c_zero, abs=1e-12
        )

    def test_unit_level_residual_order(self):
        # a(empty) = -2 R C1 + C0^2 (the empty product of residue factors is
        # 1, so its second derivative vanishes), weighted by 2 / zeta_hat(2).
        unit = LevelIdeal.unit()
        lt = laurent_at_1(TRIVIAL)
        expected = 2.0 * 6.0 / math.pi * (
            -2.0 * lt.residue * lt.c1 + lt.c0**2
        )
        assert rtf.spectral_edge_constant(unit, TRIVIAL, -1) == pytest.approx(
            expected, abs=1e-12
        )
