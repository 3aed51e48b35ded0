import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtflab.characters import DirichletCharacter
from rtflab.errors import PoleError
from rtflab.fields import LevelIdeal, RATIONALS
from rtflab.local_factors import (
    HigherConductor,
    Special,
    Spherical,
    adjoint_norm_factor,
    global_weight,
    local_l_character,
    local_l_spherical,
    period_constant,
    r_weight,
    satake_ratio,
    spherical_in_open_set,
)

P = RATIONALS.place_for_prime


def L(spec):
    return LevelIdeal.from_map({P(p): e for p, e in spec.items()})


class TestLocalLFactors:
    def test_trivial_character(self):
        assert local_l_character(1.0, 1.0 + 0.0j, 2) == pytest.approx(2.0)

    def test_minus_sign(self):
        assert local_l_character(1.0, -1.0 + 0.0j, 3) == pytest.approx(0.75)

    def test_pole_signaled(self):
        with pytest.raises(PoleError):
            local_l_character(0.0, 1.0 + 0.0j, 5)

    def test_spherical_at_zero_parameter(self):
        assert local_l_spherical(1.0, 0.0, 2) == pytest.approx(4.0)

    def test_spherical_algebraic_identity(self):
        # (1 - q^{-s-nu/2})^{-1} (1 - q^{-s+nu/2})^{-1} = (1 + q^{-2s} - q^{-s} x)^{-1}
        for q in (2, 5):
            for y in (0.3, 1.7):
                for s in (0.8, 1.3):
                    x = q ** (1j * y / 2) + q ** (-1j * y / 2)
                    expected = 1.0 / (1.0 + q ** (-2.0 * s) - q ** (-s) * x)
                    got = local_l_spherical(s, 1j * y, q)
                    assert got == pytest.approx(expected, abs=1e-13)

    def test_central_value_real_positive(self):
        for q in (2, 3, 7):
            for y in np.linspace(0.1, 5.0, 23):
                v = local_l_spherical(0.5, 1j * float(y), q)
                assert abs(v.imag) < 1e-13
                assert v.real > 0.0


class TestPeriodConstants:
    def test_k_zero_all_variants(self):
        for data in (Spherical(1.0), Spherical(cmath.exp(1.1j)), Special(-1), HigherConductor(5)):
            for sign in (1, -1):
                assert period_constant(P(3), data, sign, 0) == 1.0 + 0.0j

    def test_higher_conductor_sign_powers(self):
        assert period_constant(P(2), HigherConductor(2), -1, 3) == pytest.approx(-1.0)
        assert period_constant(P(2), HigherConductor(2), -1, 4) == pytest.approx(1.0)

    def test_spherical_k1_closed_form(self):
        q = 2
        got = period_constant(P(q), Spherical(1.0), 1, 1)
        expected = 1.0 - 2.0 / (math.sqrt(q) + 1.0 / math.sqrt(q))
        assert got == pytest.approx(expected, abs=1e-14)

    def test_spherical_k2_expansion(self):
        # direct evaluation of q^{-1} s^{k-2} (a sqrt(q) s - 1)(sqrt(q) s / a - 1)
        q, theta, s, k = 3, 0.9, -1, 4
        a = cmath.exp(1j * theta)
        got = period_constant(P(q), Spherical(a), s, k)
        expected = (1 / q) * s ** (k - 2) * (a * math.sqrt(q) * s - 1) * (math.sqrt(q) * s / a - 1)
        assert got == pytest.approx(expected, abs=1e-13)

    def test_special_formula(self):
        got = period_constant(P(5), Special(-1), 1, 2)
        assert got == pytest.approx(1.0 * (1.0 + 1.0 / 5.0), abs=1e-14)


class TestRWeight:
    def test_higher_plus_is_k_plus_one(self):
        assert r_weight(P(2), HigherConductor(2), 1, 2) == 3.0

    def test_higher_minus_parity(self):
        assert r_weight(P(2), HigherConductor(2), -1, 3) == 0.0
        assert r_weight(P(2), HigherConductor(2), -1, 4) == 1.0

    def test_spherical_minus_closed_form(self):
        assert r_weight(P(2), Spherical(cmath.exp(0.4j)), -1, 2) == pytest.approx(3.0)

    def test_special_plus(self):
        assert r_weight(P(3), Special(1), 1, 1) == pytest.approx(1.5)

    def test_k_zero_extension(self):
        assert r_weight(P(3), Special(-1), -1, 0) == 1.0

    @given(
        theta=st.floats(0.0, math.pi),
        k=st.integers(0, 8),
        sign=st.sampled_from([1, -1]),
        q=st.sampled_from([2, 3, 5, 13, 97]),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_tempered(self, theta, k, sign, q):
        assert r_weight(P(q), Spherical(cmath.exp(1j * theta)), sign, k) >= -1e-12

    @given(
        sigma=st.floats(0.01, 0.99),
        k=st.integers(0, 8),
        sign=st.sampled_from([1, -1]),
        q=st.sampled_from([2, 3, 5, 13, 97]),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_complementary(self, sigma, k, sign, q):
        data = Spherical(q ** (sigma / 2.0))
        assert spherical_in_open_set(data, q)
        assert abs(satake_ratio(data, q)) < 1.0
        assert r_weight(P(q), data, sign, k) >= -1e-12

    @pytest.mark.parametrize(
        "satake, q",
        [(0.0, 2), (5.0, 2), (1e-320, 2), (2.0**0.5, 2), (-2.0, 5)],
        ids=["zero", "above-sqrt-q", "subnormal", "at-sqrt-q", "negative-real"],
    )
    def test_satake_ratio_raises_exactly_outside_the_open_set(self, satake, q):
        data = Spherical(satake)
        assert not spherical_in_open_set(data, q)
        with pytest.raises(ValueError, match="not in the admissible set"):
            satake_ratio(data, q)


class TestGlobalWeight:
    def setup_method(self):
        self.eta = DirichletCharacter.quadratic(101)
        assert [self.eta.sign_at(P(p)) for p in (2, 3, 5, 7)] == [-1, -1, 1, -1]

    def test_level_equals_conductor(self):
        f = L({2: 2})
        reps = {P(2): HigherConductor(2)}
        assert global_weight(reps, self.eta, f, f) == 1.0

    def test_odd_exponent_minus_sign_vanishes(self):
        n, f = L({3: 3}), LevelIdeal.unit()
        reps = {P(3): Spherical(cmath.exp(0.3j))}
        # quotient exponent 3 at a minus place kills the parity factor
        assert global_weight(reps, self.eta, n, f) == 0.0

    def test_two_higher_places(self):
        f = L({2: 2, 5: 2})
        n = f * L({2: 2, 5: 2})
        reps = {P(2): HigherConductor(2), P(5): HigherConductor(2)}
        eta_plus = DirichletCharacter.trivial()
        assert global_weight(reps, eta_plus, n, f) == pytest.approx(9.0)

    @pytest.mark.parametrize("sign, weight", [(-1, 0.0), (1, 6.0)])
    def test_product_of_local_weights_over_the_quotient(self, sign, weight):
        # the key of each entry is its place: q = 2 at p2, q = 3 at p3; at
        # sign +1 the weights are k + 1 = 2 and 1 + (1 + 1/3)/(1 - 1/3) = 3
        reps = {P(2): HigherConductor(2), P(3): Special(-1)}
        # the trivial character, or chi_5, which is -1 at 2 and 3
        eta = DirichletCharacter.trivial() if sign == 1 else DirichletCharacter.quadratic(5)
        n, f = L({2: 3, 3: 2}), L({2: 2, 3: 1})
        expected = math.prod(
            r_weight(place, reps[place], eta.sign_at(place), k) for place, k in n.quotient(f).factors
        )
        assert [k for _, k in n.quotient(f).factors] == [1, 1]
        assert global_weight(reps, eta, n, f) == expected == pytest.approx(weight, abs=1e-15)

    def test_divisibility_violation(self):
        with pytest.raises(ValueError):
            global_weight({}, self.eta, L({2: 1}), L({3: 1}))

    def test_conductor_mismatch_detected(self):
        n, f = L({2: 2}), L({2: 1})
        reps = {P(2): HigherConductor(2)}  # exponent 2, conductor says 1
        with pytest.raises(ValueError):
            global_weight(reps, self.eta, n, f)


class TestSumProductIdentity:
    """The combinatorial identity aggregating choice maps into per-place sums."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_arrays(self, data):
        n_places = data.draw(st.integers(1, 4))
        ks = [data.draw(st.integers(1, 4)) for _ in range(n_places)]
        arrays = [
            [data.draw(st.floats(-1.0, 1.0)) for _ in range(k + 1)] for k in ks
        ]
        lhs = 0.0
        for combo in itertools.product(*[range(k + 1) for k in ks]):
            lhs += math.prod(arrays[i][j] for i, j in enumerate(combo))
        rhs = math.prod(sum(a) for a in arrays)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_seeded_instances(self):
        rng = np.random.default_rng(515)
        for _ in range(200):
            ks = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
            arrays = [rng.uniform(-1, 1, size=k + 1) for k in ks]
            lhs = 0.0
            for combo in itertools.product(*[range(k + 1) for k in ks]):
                lhs += math.prod(arrays[i][j] for i, j in enumerate(combo))
            rhs = math.prod(float(np.sum(a)) for a in arrays)
            assert abs(lhs - rhs) <= 1e-12


class TestAdjointNormFactor:
    def test_unit_conductor(self):
        assert adjoint_norm_factor(LevelIdeal.unit(), 1.0) == pytest.approx(2.0)

    def test_prime_conductor(self):
        assert adjoint_norm_factor(L({5: 1}), 1.0) == pytest.approx(2.0 * 5.0 / 6.0)

    def test_linearity(self):
        f = L({3: 2})
        assert adjoint_norm_factor(f, 2.5) == pytest.approx(2.5 * adjoint_norm_factor(f, 1.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            adjoint_norm_factor(LevelIdeal.unit(), 0.0)


class TestGlobalWeightSpecialization:
    """With every level-place sign equal to -1 the global weight collapses to
    a parity indicator times (q+1)/(q-1) over the spherical places — an
    independent closed form for the whole case table."""

    def specialized(self, n, conductor, reps):
        # indicator: squarefree level places must carry conductor exponent 1,
        # deeper places an even gap; spherical deep places contribute
        # (q+1)/(q-1).
        out = 1.0
        for place, a in n.factors:
            b = conductor.ord_at(place)
            if a == 1:
                if b != 1:
                    return 0.0
            else:
                if (a - b) % 2 == 1:
                    return 0.0
                if b == 0 and a >= 2:
                    out *= (place.q + 1.0) / (place.q - 1.0)
        return out

    def test_against_case_table(self):
        import numpy as np

        rng = np.random.default_rng(321)
        primes = (2, 3, 5, 7)
        eta = DirichletCharacter.quadratic(173)
        assert [eta.sign_at(P(p)) for p in primes] == [-1] * 4
        for _ in range(120):
            n_spec, f_spec, reps = {}, {}, {}
            for p in primes:
                a = int(rng.integers(0, 5))
                if a == 0:
                    continue
                n_spec[p] = a
                shape = rng.choice(["spherical", "special", "higher"])
                place = P(p)
                if shape == "spherical" or a == 1 and rng.random() < 0.3:
                    b = 0
                    theta = float(rng.uniform(0.0, math.pi))
                    reps[place] = Spherical(cmath.exp(1j * theta))
                elif shape == "special":
                    b = min(1, a)
                    reps[place] = Special(int(rng.choice([1, -1])))
                else:
                    b = int(rng.integers(2, a + 1)) if a >= 2 else 1
                    if b >= 2:
                        reps[place] = HigherConductor(b)
                    else:
                        reps[place] = Special(int(rng.choice([1, -1])))
                if b:
                    f_spec[p] = b
            if not n_spec:
                continue
            n, f = L(n_spec), L(f_spec)
            got = global_weight(reps, eta, n, f)
            assert got == pytest.approx(self.specialized(n, f, reps), abs=1e-12)


class TestPeriodWeightConsistency:
    """The weight table aggregates squared period constants against hidden
    positive norm constants.  Solving for those norms from the +1 column and
    requiring the -1 column to match cross-validates both case tables; the
    depth-one norm also has a hand-derivable closed form."""

    def derive_norms_and_check(self, q, data, kmax=8):
        place = P(q)
        taus = [1.0]
        worst = 0.0
        for k in range(1, kmax + 1):
            partial = sum(
                (period_constant(place, data, 1, j).conjugate() * period_constant(place, data, 1, j)).real
                / taus[j]
                for j in range(k)
            )
            qk_sq = (
                period_constant(place, data, 1, k).conjugate() * period_constant(place, data, 1, k)
            ).real
            remainder = r_weight(place, data, 1, k) - partial
            assert remainder > 1e-13, "weight table must exceed the partial sum"
            taus.append(qk_sq / remainder)
            minus = sum(
                (period_constant(place, data, 1, j).conjugate() * period_constant(place, data, -1, j)).real
                / taus[j]
                for j in range(k + 1)
            )
            worst = max(worst, abs(minus - r_weight(place, data, -1, k)))
        return taus, worst

    @pytest.mark.parametrize(
        "data,q",
        [
            (Spherical(cmath.exp(0.7j)), 2),
            (Spherical(cmath.exp(2.1j)), 5),
            (Spherical(3**0.2), 3),  # complementary series, sigma = 0.4
            (Special(1), 3),
            (Special(-1), 2),
            (HigherConductor(2), 7),
        ],
    )
    def test_tables_are_mutually_consistent(self, data, q):
        taus, worst = self.derive_norms_and_check(q, data)
        assert worst <= 1e-12
        assert all(t > 0.0 for t in taus)  # norms are positive

    def test_depth_one_norm_closed_form(self):
        # tau_1 = 1 - Q**2 (spherical), 1 - 1/q**2 (special), 1 (deeper)
        sph = Spherical(cmath.exp(0.7j))
        taus, _ = self.derive_norms_and_check(2, sph, kmax=1)
        ratio = satake_ratio(sph, 2)
        assert taus[1] == pytest.approx(1.0 - ratio * ratio, abs=1e-13)
        taus, _ = self.derive_norms_and_check(3, Special(1), kmax=1)
        assert taus[1] == pytest.approx(1.0 - 1.0 / 9.0, abs=1e-13)
        taus, _ = self.derive_norms_and_check(7, HigherConductor(3), kmax=1)
        assert taus[1] == pytest.approx(1.0, abs=1e-13)
