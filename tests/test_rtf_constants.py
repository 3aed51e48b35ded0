import itertools
import math

import numpy as np
import pytest

from rtflab.characters import DirichletCharacter, QuadraticCharacterProfile
from rtflab.errors import CapExceededError, DomainError, PoleError, RamifiedOverlapError
from rtflab.fields import LevelIdeal, RATIONALS
from rtflab.lfunctions import completed_l, jet_product
from rtflab import oracles
from rtflab import rtf_constants as rtf
from rtflab.special import EULER_GAMMA

P = RATIONALS.place_for_prime
ARCH = RATIONALS.archimedean_places[0]


def L(spec):
    return LevelIdeal.from_map({P(p): e for p, e in spec.items()})


TRIVIAL = DirichletCharacter.trivial()
CHI5 = DirichletCharacter.quadratic(5)


@pytest.fixture(scope="module")
def ctx_trivial():
    return rtf.eta_context(TRIVIAL)


@pytest.fixture(scope="module")
def ctx_chi5():
    return rtf.eta_context(CHI5)


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


class TestMeanSquareConstant:
    def test_nontrivial_residue_free(self, ctx_chi5):
        laurent = ctx_chi5.laurent_eta
        a = rtf.mean_square_constant(LevelIdeal.unit(), laurent)
        b = rtf.mean_square_constant(L({2: 6}), laurent)
        assert a == b == laurent.c0

    def test_trivial_unit_level(self, ctx_trivial):
        laurent = ctx_trivial.laurent_trivial
        expected = laurent.c0 + (EULER_GAMMA + 2.0 * math.log(2.0) - math.log(math.pi)) / 2.0
        assert rtf.mean_square_constant(LevelIdeal.unit(), laurent) == pytest.approx(expected, abs=1e-12)

    def test_log_growth(self, ctx_trivial):
        laurent = ctx_trivial.laurent_trivial
        n = L({2: 3, 5: 1})
        delta = rtf.mean_square_constant(n, laurent) - rtf.mean_square_constant(
            LevelIdeal.unit(), laurent
        )
        assert delta == pytest.approx(0.5 * math.log(n.norm()), abs=1e-12)


class TestRhoEnumeration:
    def test_unit_ideal(self):
        rhos = oracles.enumerate_rho(LevelIdeal.unit())
        assert len(rhos) == 1
        assert rhos[0].is_empty()

    def test_counts(self):
        assert len(oracles.enumerate_rho(L({2: 2}))) == 3
        assert len(oracles.enumerate_rho(L({2: 1, 3: 2}))) == 6

    def test_cap(self):
        with pytest.raises(CapExceededError):
            oracles.enumerate_rho(L({2: 9, 3: 9, 5: 9}), cap=100)

    def test_choices_bounded(self):
        for rho in oracles.enumerate_rho(L({2: 3})):
            for place, j in rho.choices:
                assert 0 <= j <= 3


class TestFlatSection:
    def test_empty(self):
        rho = oracles.enumerate_rho(LevelIdeal.unit())[0]
        assert oracles.flat_section_at_identity(rho, lambda p: 1) == 1.0

    def test_depth_one_minus(self):
        rho = [r for r in oracles.enumerate_rho(L({2: 1})) if not r.is_empty()][0]
        assert oracles.flat_section_at_identity(rho, lambda p: -1) == pytest.approx(-math.sqrt(2.0))

    def test_depth_two_plus(self):
        rho = [r for r in oracles.enumerate_rho(L({3: 2})) if dict(r.choices).get(P(3), 0) == 2][0]
        got = oracles.flat_section_at_identity(rho, lambda p: 1)
        assert got == pytest.approx(2.0 * math.sqrt(2.0))


class TestEdgePlaceFactor:
    def test_minus_sign_depth_one_vanishes_at_edge(self):
        # the bracket q + 1 + sign(1 + q) collapses for sign = -1
        block = rtf.EdgePlaceBlock(2, 1, -1)
        assert rtf.edge_place_factor(-1.0, block) == pytest.approx(0.0, abs=1e-14)
        assert rtf.edge_place_jet(block)[0] == 0.0

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            rtf.edge_place_factor(1.0, rtf.EdgePlaceBlock(2, 1, 1))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_derivatives_match_finite_differences(self, q, k, sign):
        block = rtf.EdgePlaceBlock(q, k, sign)
        f = lambda nu: rtf.edge_place_factor(nu, block).real
        h = 1e-4
        fd1 = (f(-1.0 + h) - f(-1.0 - h)) / (2.0 * h)
        fd2 = (f(-1.0 + h) - 2.0 * f(-1.0) + f(-1.0 - h)) / (h * h)
        _, d1, half_d2 = rtf.edge_place_jet(block)
        d2 = 2.0 * half_d2
        assert abs(d1 - fd1) <= 1e-6 * max(1.0, abs(d1))
        assert abs(d2 - fd2) <= 1e-5 * max(1.0, abs(d2))

    def test_value_at_edge_closed_form(self):
        for q, k, sign in ((2, 1, 1), (3, 2, 1), (5, 4, -1)):
            block = rtf.EdgePlaceBlock(q, k, sign)
            direct = rtf.edge_place_factor(-1.0, block).real
            assert rtf.edge_place_jet(block)[0] == pytest.approx(direct, abs=1e-12)


class TestEdgeProductTaylor:
    def test_empty_assignment(self, ctx_trivial):
        rho = oracles.enumerate_rho(LevelIdeal.unit())[0]
        assert oracles.edge_product_taylor(rho, ctx_trivial.eta) == (1.0, 0.0, 0.0)

    def test_single_place_first_order(self):
        eta = QuadraticCharacterProfile.from_signs({P(2): 1})
        rho = [r for r in oracles.enumerate_rho(L({2: 2})) if dict(r.choices).get(P(2), 0) == 2][0]
        t0, t1, t2 = oracles.edge_product_taylor(rho, eta)
        block = rtf.EdgePlaceBlock(2, 2, 1)
        assert t1 == pytest.approx(rtf.edge_place_jet(block)[1], abs=1e-12)

        def f(nu):
            return rtf.edge_place_factor(nu, block).real

        fit = taylor_by_polyfit(f, -1.0)
        assert t0 == pytest.approx(fit[0], abs=1e-8)
        assert t1 == pytest.approx(fit[1], rel=1e-6)
        assert t2 == pytest.approx(fit[2], rel=1e-6)

    def test_multi_place_vs_numeric_taylor(self):
        eta = QuadraticCharacterProfile.from_signs({P(2): -1, P(3): 1, P(5): -1})
        for spec in ({2: 1, 3: 1}, {2: 2, 3: 1, 5: 1}, {2: 1, 3: 2, 5: 3}):
            n = L(spec)
            for rho in oracles.enumerate_rho(n):
                if not 1 <= len(rho.active()) <= 3:
                    continue
                blocks = [
                    rtf.EdgePlaceBlock(p.q, k, eta.sign_at(p)) for p, k in rho.active()
                ]

                def f(nu):
                    acc = 1.0
                    for b in blocks:
                        acc *= rtf.edge_place_factor(nu, b).real
                    return acc

                t0, t1, t2 = oracles.edge_product_taylor(rho, eta)
                fit = taylor_by_polyfit(f, -1.0)
                scale = max(1.0, abs(t0), abs(t1), abs(t2))
                assert abs(t0 - fit[0]) <= 1e-6 * scale
                assert abs(t1 - fit[1]) <= 1e-6 * scale
                assert abs(t2 - fit[2]) <= 1e-6 * scale


class TestResidueFactors:
    def test_value_half_one_trivial_vanishes(self):
        rho = [r for r in oracles.enumerate_rho(L({2: 1})) if not r.is_empty()][0]
        assert oracles.residue_value_half_one(rho, lambda p: 1) == 0.0

    def test_value_half_one_minus_sign(self):
        rho = [r for r in oracles.enumerate_rho(L({2: 1})) if not r.is_empty()][0]
        got = oracles.residue_value_half_one(rho, lambda p: -1)
        expected = (-2.0) * 2.0**-0.5 / (1.0 - 0.5)
        assert got == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_derivatives_match_finite_differences(self, q, k):
        block = rtf.EdgePlaceBlock(q, k, 1)
        g = lambda z: rtf.residue_place_factor(z, block).real
        h = 1e-4
        fd1 = (g(h) - g(-h)) / (2.0 * h)
        fd2 = (g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)
        _, d1, half_d2 = rtf.residue_place_jet(block)
        assert abs(d1 - fd1) <= 1e-6 * max(1.0, abs(fd1))
        assert abs(2.0 * half_d2 - fd2) <= 1e-5 * max(1.0, abs(fd2))

    def test_place_factor_vanishes_at_zero(self):
        for q, k in ((2, 1), (3, 2), (5, 4)):
            assert abs(rtf.residue_place_factor(0.0, rtf.EdgePlaceBlock(q, k, 1))) <= 1e-15

    def test_product_derivatives_product_rule(self):
        # The jet product of the per-place jets against finite differences of
        # the product of the factors (D**(-z) = 1 over Q).
        rho = [r for r in oracles.enumerate_rho(L({2: 1, 3: 2})) if len(r.active()) == 2][-1]
        blocks = [rtf.EdgePlaceBlock(p.q, k, 1) for p, k in rho.active()]
        f = lambda z: math.prod(rtf.residue_place_factor(z, b) for b in blocks).real
        h = 1e-4
        fd1 = (f(h) - f(-h)) / (2.0 * h)
        fd2 = (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)
        _, d1, half_d2 = jet_product(rtf.residue_place_jet(b) for b in blocks)
        assert d1 == pytest.approx(fd1, abs=1e-6)
        assert 2.0 * half_d2 == pytest.approx(fd2, abs=1e-5)

    def test_specializations_empty_assignment(self, ctx_trivial):
        # The empty product has value 1 and no z-dependence over Q (log D = 0),
        # and epsilon(0) = 1 for the trivial character, so a(rho) reduces to
        # the Laurent data: -2 r c1 + c0**2.
        rho = oracles.enumerate_rho(LevelIdeal.unit())[0]
        assert oracles.residue_value_half_one(rho, lambda p: 1) == 1.0
        lau = ctx_trivial.laurent_trivial
        expected = -2.0 * lau.residue * lau.c1 + lau.c0**2
        assert oracles.residual_term_constant(rho, ctx_trivial) == pytest.approx(expected, abs=1e-15)


class TestSpectralEdgeConstants:
    def test_unit_level_order_two_is_leading_coefficient(self, ctx_trivial):
        got = rtf.spectral_edge_constant(LevelIdeal.unit(), ctx_trivial, 2)
        assert got == pytest.approx(ctx_trivial.edge.c_minus2, abs=1e-12)
        assert got == pytest.approx(24.0 / math.pi, abs=1e-9)

    def test_zero_contribution_of_minus_sign_assignments(self, ctx_chi5):
        # chi5(2) = chi5(3) = -1, so every nonempty assignment has vanishing
        # order-0 product and the sums reduce to the empty-assignment term.
        n = L({2: 2, 3: 1})
        got = rtf.spectral_edge_constant(n, ctx_chi5, 0)
        empty_term = 2.0 * ctx_chi5.edge.c_zero  # (section + empty-flag) * c_zero
        assert got == pytest.approx(empty_term, abs=1e-10)

    def test_orders_vanish_for_regular_character(self, ctx_chi5):
        for order in (2, 1):
            v = rtf.spectral_edge_constant(L({2: 1}), ctx_chi5, order)
            assert abs(v) <= 1e-10

    def test_growth_scan_polylog_envelope(self, ctx_trivial, ctx_chi5):
        # Empirical scan over N <= 1e6: all four constants stay finite and
        # inside a polylogarithmic envelope (frozen with 2x headroom),
        # consistent with subpolynomial growth in the norm.
        for ctx in (ctx_trivial, ctx_chi5):
            for a in range(0, 7):
                for b in range(0, 7):
                    spec = {p: e for p, e in zip((2, 3), (a, b)) if e}
                    n = L(spec)
                    if n.norm() > 10**6:
                        continue
                    for order in (2, 1, 0, -1):
                        y = rtf.spectral_edge_constant(n, ctx, order)
                        assert math.isfinite(y)
                        assert abs(y) <= 16.0 * (1.0 + math.log(n.norm())) ** 6

    def test_invalid_order(self, ctx_trivial):
        with pytest.raises(ValueError):
            rtf.spectral_edge_constant(LevelIdeal.unit(), ctx_trivial, 3)


EIGHT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


@pytest.fixture(scope="module")
def contexts(ctx_trivial, ctx_chi5):
    out = {"trivial": ctx_trivial, "quad:5": ctx_chi5}
    for m in (8, 12, 13):
        out[f"quad:{m}"] = rtf.eta_context(DirichletCharacter.quadratic(m))
    return out


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
    def test_matches_assignment_enumeration(self, contexts, eta, spec):
        n = L(spec)
        ctx = contexts[eta]
        expected = oracles.edge_constants_by_enumeration(n, ctx)
        for order in (2, 1, 0, -1):
            y = expected[order]
            got = rtf.spectral_edge_constant(n, ctx, order)
            assert abs(got - y) <= 1e-12 * max(1.0, abs(y)), (order, got, y)

    def test_ramified_level_raises_for_every_order(self, ctx_chi5):
        for order in (2, 1, 0, -1):
            with pytest.raises(RamifiedOverlapError):
                rtf.spectral_edge_constant(L({5: 1}), ctx_chi5, order)


class TestOrbitFactor:
    def test_archimedean_at_one(self):
        got = rtf.unipotent_orbit_factor({ARCH: 1.0 + 0.0j}, lambda p: 1)
        assert got == pytest.approx(-math.pi / 8.0, abs=1e-12)

    def test_trivial_sign_finite_factor_coincides(self):
        # for sign +1 the two displayed finite-factor forms are identical
        q, s = 3, 1.7 + 0.0j
        got = rtf.unipotent_orbit_factor({P(q): s}, lambda p: 1)
        up = q ** ((s + 1.0) / 2.0)
        expected = 1.0 / ((1.0 - 1.0 / up) * (1.0 - up))
        assert got == pytest.approx(expected, abs=1e-13)

    def test_stirling_decay(self):
        # the archimedean factor decays like -1/(2 s) along the reals
        for s in (1e3, 1e4):
            got = rtf.unipotent_orbit_factor({ARCH: complex(s)}, lambda p: 1)
            assert got.real * s == pytest.approx(-0.5, rel=2e-3)

    def test_pole_signaled(self):
        with pytest.raises(PoleError):
            rtf.unipotent_orbit_factor({P(2): -1.0 + 0.0j}, lambda p: 1)

    @pytest.mark.parametrize(
        "place, s",
        [(P(3), 3000.0), (ARCH, 1e308), (ARCH, -3000.0)],
        ids=["finite-power-overflow", "arch-log-gamma-nan", "arch-gamma-overflow"],
    )
    def test_overflow_is_a_domain_error(self, place, s):
        with pytest.raises(DomainError, match=f"at {place.label} is not finite"):
            rtf.unipotent_orbit_factor({place: complex(s)}, lambda p: 1)


class TestOrbitConstant:
    def test_nontrivial_character_is_flat(self, ctx_chi5):
        laurent = ctx_chi5.laurent_eta
        values = []
        for s in (0.5, 1.0, 2.0, 3.5):
            for a_spec in ({}, {2: 1}, {3: 2}):
                values.append(
                    rtf.unipotent_orbit_constant(
                        {ARCH: complex(s), P(7): complex(s)}, L(a_spec), laurent
                    )
                )
        spread = max(abs(v - values[0]) for v in values)
        assert spread <= 1e-10
        assert values[0] == pytest.approx(completed_l(1.0, CHI5).real, abs=1e-10)

    def test_trivial_character_log_growth(self, ctx_trivial):
        laurent = ctx_trivial.laurent_trivial
        s_map = {ARCH: 2.0 + 0.0j}
        for spec in ({2: 1}, {2: 3, 5: 1}, {3: 2}):
            n = L(spec)
            delta = rtf.unipotent_orbit_constant(s_map, n, laurent) - rtf.unipotent_orbit_constant(
                s_map, LevelIdeal.unit(), laurent
            )
            assert delta == pytest.approx(laurent.residue * 0.5 * math.log(n.norm()), abs=1e-10)

    def test_finite_place_term(self, ctx_trivial):
        laurent = ctx_trivial.laurent_trivial
        s = 1.4 + 0.0j
        base = rtf.unipotent_orbit_constant({ARCH: s}, LevelIdeal.unit(), laurent)
        with_q = rtf.unipotent_orbit_constant({ARCH: s, P(3): s}, LevelIdeal.unit(), laurent)
        expected = laurent.residue * math.log(3.0) / (1.0 - 3.0 ** ((s.real + 1.0) / 2.0))
        assert (with_q - base).real == pytest.approx(expected, abs=1e-12)

    def test_overflow_is_a_domain_error(self, ctx_trivial):
        with pytest.raises(DomainError, match="at p3 is not finite"):
            rtf.unipotent_orbit_constant(
                {ARCH: 2.0 + 0.0j, P(3): 3000.0 + 0.0j}, LevelIdeal.unit(), ctx_trivial.laurent_trivial
            )


class TestIntertwiningRatio:
    def test_empty_assignment_zeta_ratio(self):
        rho = oracles.enumerate_rho(LevelIdeal.unit())[0]
        nu = 0.3
        got = rtf.intertwining_ratio(TRIVIAL, rho, nu)
        em = zeta_euler_maclaurin(1.3) / zeta_euler_maclaurin(0.7)
        assert got.real == pytest.approx(em, abs=1e-9)
        # coarse Euler-product corroboration for the numerator
        euler = zeta_euler_product(1.3)
        assert abs(euler - zeta_euler_maclaurin(1.3)) / zeta_euler_maclaurin(1.3) <= 0.05

    def test_value_at_zero_is_minus_one(self):
        # chi**2 is principal, so the L-ratio is zeta(1+nu)/zeta(1-nu) -> -1
        rho = oracles.enumerate_rho(L({2: 2}))[2]
        assert rtf.intertwining_ratio(TRIVIAL, rho, 0.0) == -1.0

    @pytest.mark.parametrize("nu", [0.0, 1e-14, -1e-14, 2e-14, 1e-10])
    @pytest.mark.parametrize("chi", [TRIVIAL, CHI5], ids=["trivial", "quad5"])
    def test_near_zero_against_mpmath(self, chi, nu):
        import mpmath as mp

        rho = oracles.enumerate_rho(LevelIdeal.unit())[0]
        got = rtf.intertwining_ratio(chi, rho, nu)
        with mp.workdps(30):
            if nu == 0:
                want = -1
            else:
                s = 1 + mp.mpf(nu)
                assert s - 1 == nu  # 1 + nu is exact at 30 digits
                want = mp.mpf(chi.modulus) ** -nu * mp.zeta(s) / mp.zeta(2 - s)
        assert got.imag == 0.0
        assert got.real == pytest.approx(float(want), rel=2.0**-50, abs=0.0)

    def test_limit_is_one_where_chi_squared_is_nonprincipal(self):
        chi = DirichletCharacter(5, (1,))  # order 4: chi**2 is the quadratic character mod 5
        assert chi.square().primitive_character() == CHI5
        rho = oracles.enumerate_rho(LevelIdeal.unit())[0]
        assert rtf.intertwining_ratio(chi, rho, 0.0) == 1.0
        for nu in (1e-14, -1e-14):
            assert rtf.intertwining_ratio(chi, rho, nu) == pytest.approx(1.0, abs=1e-13)

    def test_involution(self):
        rho = oracles.enumerate_rho(L({2: 2, 3: 1}))[4]
        for chi in (TRIVIAL, CHI5):
            for nu in (0.3, 0.2 + 0.5j):
                prod = rtf.intertwining_ratio(chi, rho, nu) * rtf.intertwining_ratio(
                    chi, rho, -nu
                )
                assert prod == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_power_factor(self):
        # one active place of depth k contributes q**(-k nu)
        rho = [r for r in oracles.enumerate_rho(L({2: 2})) if dict(r.choices).get(P(2), 0) == 2][0]
        nu = 0.4
        with_places = rtf.intertwining_ratio(TRIVIAL, rho, nu)
        empty = rtf.intertwining_ratio(TRIVIAL, oracles.enumerate_rho(LevelIdeal.unit())[0], nu)
        assert with_places.real == pytest.approx(empty.real * 2.0 ** (-2 * nu), rel=1e-12)

    def test_ramified_overlap(self):
        rho = [r for r in oracles.enumerate_rho(L({5: 1})) if not r.is_empty()][0]
        with pytest.raises(RamifiedOverlapError):
            rtf.intertwining_ratio(CHI5, rho, 0.3)

    def test_denominator_zero_signaled(self):
        # 1 - nu = -2 is a trivial zero of zeta
        rho = oracles.enumerate_rho(LevelIdeal.unit())[0]
        with pytest.raises(PoleError):
            rtf.intertwining_ratio(TRIVIAL, rho, 3.0)


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

    def test_overlap_is_ramified_overlap_error(self):
        # the same condition `rtflab constants` reports (exit 3)
        with pytest.raises(RamifiedOverlapError):
            rtf.kernel_normalization(L({2: 1, 3: 1}), [ARCH, P(3)])


class TestPredictedMomentAverage:
    def test_zero_function(self):
        eta = QuadraticCharacterProfile.from_dirichlet(TRIVIAL)
        res = rtf.predicted_moment_average(
            L({2: 1}), {ARCH: (lambda y: 0.0, (1.0, 2.0))}, eta, 1.0
        )
        assert res.value == 0.0

    def test_squarefree_equals_pairing(self):
        from rtflab.measures import spectral_pairing

        eta = QuadraticCharacterProfile.from_dirichlet(TRIVIAL)
        fns = {ARCH: (lambda y: 1.0, (1.0, 2.0))}
        res = rtf.predicted_moment_average(L({2: 1, 7: 1}), fns, eta, 1.3)
        pair = spectral_pairing(fns, eta.sign_at, 1.3)
        assert res.value == pytest.approx(pair.value, rel=1e-12)

    def test_exponent_two_halves_at_q2(self):
        eta = QuadraticCharacterProfile.from_dirichlet(TRIVIAL)
        fns = {ARCH: (lambda y: 1.0, (1.0, 2.0))}
        squarefree = rtf.predicted_moment_average(L({3: 1}), fns, eta, 1.0)
        squared = rtf.predicted_moment_average(L({2: 2}), fns, eta, 1.0)
        assert squared.value == pytest.approx(0.5 * squarefree.value, rel=1e-12)


class TestEtaContext:
    def test_trivial_context(self, ctx_trivial):
        assert ctx_trivial.is_trivial
        assert ctx_trivial.gauss_adelic == 1.0 + 0.0j
        assert ctx_trivial.residue == pytest.approx(1.0, abs=1e-9)
        assert ctx_trivial.zeta2 == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_zeta2_literal_matches_mpmath(self, ctx_trivial):
        import mpmath

        from rtflab.lfunctions import _DPS

        with mpmath.workdps(_DPS):
            want = float(mpmath.pi ** -1 * mpmath.gamma(1) * mpmath.zeta(2))
        assert ctx_trivial.zeta2 == want
        # the correctly rounded pi/6, which the float quotient misses by an ulp
        assert want == math.nextafter(math.pi / 6.0, 1.0)

    def test_quadratic_context(self, ctx_chi5):
        assert not ctx_chi5.is_trivial
        assert ctx_chi5.gauss_adelic == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert ctx_chi5.laurent_eta.residue == 0.0

    def test_every_order_one_character_gives_the_trivial_context(self, ctx_trivial):
        assert rtf.eta_context(DirichletCharacter.trivial(6)) == ctx_trivial
        assert ctx_trivial.eta.dirichlet == TRIVIAL

    def test_rejects_odd_quadratic(self):
        with pytest.raises(ValueError):
            rtf.eta_context(DirichletCharacter.quadratic(3))


class TestUnitLevelEdgeWiring:
    def test_unit_level_all_orders(self, ctx_trivial):
        # The single (empty) assignment has section 1 and empty-flag 1, with
        # order-0 product 1 and vanishing higher Taylor data, so the sums
        # collapse onto the edge coefficients with the documented weights.
        unit = LevelIdeal.unit()
        e = ctx_trivial.edge
        assert rtf.spectral_edge_constant(unit, ctx_trivial, 2) == pytest.approx(
            2.0 * 0.5 * e.c_minus2, abs=1e-12
        )
        assert rtf.spectral_edge_constant(unit, ctx_trivial, 1) == pytest.approx(
            2.0 * e.c_minus1, abs=1e-12
        )
        assert rtf.spectral_edge_constant(unit, ctx_trivial, 0) == pytest.approx(
            2.0 * e.c_zero, abs=1e-12
        )

    def test_unit_level_residual_order(self, ctx_trivial):
        # a(empty) = -2 R C1 + C0^2 over Q (the twisted second derivative of
        # the empty product vanishes since log D = 0), weighted by
        # 2 / zeta_hat(2).
        unit = LevelIdeal.unit()
        lt = ctx_trivial.laurent_trivial
        expected = 2.0 / ctx_trivial.zeta2 * (
            -2.0 * lt.residue * lt.c1 + lt.c0**2
        )
        assert rtf.spectral_edge_constant(unit, ctx_trivial, -1) == pytest.approx(
            expected, abs=1e-12
        )
