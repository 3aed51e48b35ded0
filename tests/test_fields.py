import importlib.util
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtflab.fields import (
    ArchimedeanPlace,
    FieldProfile,
    FinitePlace,
    LevelIdeal,
    RATIONALS,
    index_k0,
    parse_factored_level,
)

P2 = RATIONALS.place_for_prime(2)
P3 = RATIONALS.place_for_prime(3)
P5 = RATIONALS.place_for_prime(5)


def L(spec):
    return LevelIdeal.from_map({RATIONALS.place_for_prime(p): e for p, e in spec.items()})


def brute_force_square_divisors(spec):
    """Oracle: enumerate exponent vectors bounded by floor(e/2)."""
    primes = sorted(spec)
    ranges = [range(spec[p] // 2 + 1) for p in primes]
    out = set()
    for combo in itertools.product(*ranges):
        out.add(math.prod(p**e for p, e in zip(primes, combo)))
    return sorted(out)


class TestNorm:
    def test_unit_ideal(self):
        assert LevelIdeal.unit().norm() == 1

    def test_prime_power(self):
        assert L({2: 3}).norm() == 8

    def test_two_primes(self):
        assert L({2: 1, 3: 2}).norm() == 18

    def test_log_norm(self):
        n = L({2: 5, 7: 3})
        assert math.isclose(n.log_norm(), math.log(n.norm()), rel_tol=1e-14)

    def test_huge_level_exact(self):
        n = L({2: 80, 3: 50})
        assert n.norm() == 2**80 * 3**50  # exact beyond 2**63

    @given(
        e1=st.integers(1, 6),
        e2=st.integers(1, 6),
        e3=st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_multiplicative_on_disjoint_supports(self, e1, e2, e3):
        a = L({2: e1, 3: e2})
        b = L({5: e3})
        assert (a * b).norm() == a.norm() * b.norm()


class TestSupportAtOrder:
    def test_exact_exponent(self):
        n = L({2: 2})
        assert n.support_at_order(2) == {P2}
        assert n.support_at_order(1) == set()

    def test_mixed(self):
        n = L({2: 1, 3: 3})
        assert n.support_at_order(3) == {P3}
        assert n.support_at_order(1) == {P2}

    def test_partition(self):
        n = L({2: 1, 3: 3, 5: 3})
        union = set()
        total = 0
        for k in range(1, n.max_exponent() + 1):
            sk = n.support_at_order(k)
            assert not (sk & union)
            union |= sk
            total += len(sk)
        assert union == set(n.support())
        assert total == len(n.support())

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            L({2: 1}).support_at_order(0)


class TestSquareDivisors:
    def test_fourth_power(self):
        got = [c.norm() for c in L({2: 4}).square_divisor_conductors()]
        assert got == [1, 2, 4]

    def test_single_prime(self):
        got = [c.norm() for c in L({2: 1}).square_divisor_conductors()]
        assert got == [1]

    def test_two_squares(self):
        got = sorted(c.norm() for c in L({2: 2, 3: 2}).square_divisor_conductors())
        assert got == brute_force_square_divisors({2: 2, 3: 2}) == [1, 2, 3, 6]

    @given(
        e1=st.integers(0, 5),
        e2=st.integers(0, 5),
        e3=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, e1, e2, e3):
        spec = {p: e for p, e in zip((2, 3, 5), (e1, e2, e3)) if e}
        n = L(spec)
        got = sorted(c.norm() for c in n.square_divisor_conductors())
        assert got == brute_force_square_divisors(spec)
        assert len(got) == math.prod(e // 2 + 1 for e in spec.values())


class TestIdealArithmetic:
    def test_quotient(self):
        n = L({2: 3, 3: 1})
        f = L({2: 1, 3: 1})
        assert n.quotient(f) == L({2: 2})

    def test_quotient_requires_divisibility(self):
        with pytest.raises(ValueError):
            L({2: 1}).quotient(L({3: 1}))

    def test_index_k0(self):
        assert index_k0(LevelIdeal.unit()) == 1
        assert index_k0(L({5: 1})) == 6  # p + 1
        assert index_k0(L({5: 2})) == 30  # p (p + 1)

    def test_index_k0_is_the_exact_rational_product_on_level_scan_levels(self):
        bench = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("_fields_bench_workloads", bench)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses resolve their module by name
        spec.loader.exec_module(workloads)
        levels = [inv.expect["exponents"] for inv in workloads.pool() if inv.kind == "constants"]
        assert len(levels) == 81  # every level_scan family member
        for exponents in levels:
            n = L(exponents)
            want = Fraction(n.norm()) * math.prod(Fraction(p.q + 1, p.q) for p, _ in n.factors)
            got = index_k0(n)
            assert type(got) is int and got == want
            assert float(got) == float(want)

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            LevelIdeal(((P2, 0),))


class TestProfile:
    def test_rationals_profile(self):
        assert RATIONALS.degree == 1
        assert RATIONALS.discriminant_abs == 1
        assert len(RATIONALS.archimedean_places) == 1
        assert RATIONALS.place_for_prime(7).q == 7
        assert RATIONALS.place_for_prime(7).d == 0

    def test_rejects_composite_prime(self):
        with pytest.raises(ValueError):
            RATIONALS.place_for_prime(6)

    @pytest.mark.parametrize("n", [6, 4, 9, 1, 0, -7, 1_000_003 * 3])
    def test_non_prime_message(self, n):
        with pytest.raises(ValueError, match=rf"^{n} is not prime$"):
            RATIONALS.place_for_prime(n)

    @pytest.mark.parametrize("q", [6, 1, 0, 12])
    def test_non_prime_power_place_message(self, q):
        with pytest.raises(ValueError, match=rf"^residue cardinality {q} is not a prime power >= 2$"):
            FinitePlace("bad", q)

    def test_prime_factorized_once(self, monkeypatch):
        from rtflab import fields

        calls = []
        honest = fields.factorize

        def counting(n):
            calls.append(n)
            return honest(n)

        monkeypatch.setattr(fields, "factorize", counting)
        fields._prime_power.cache_clear()
        try:
            place = RATIONALS.place_for_prime(1_000_003)
        finally:
            fields._prime_power.cache_clear()
        assert (place.label, place.q, place.d) == ("p1000003", 1_000_003, 0)
        assert calls == [1_000_003]

    def test_json_round_trip(self):
        profile = FieldProfile.from_json(
            '{"degree": 2, "discriminant": 5, '
            '"places": [{"label": "v2", "q": 4, "d": 0}, {"label": "v5", "q": 5, "d": 1}]}'
        )
        assert profile.degree == 2
        again = FieldProfile(
            2, 5, (ArchimedeanPlace("inf"), ArchimedeanPlace("inf1")),
            (FinitePlace("v2", 4, 0), FinitePlace("v5", 5, 1)),
        )
        assert again == profile

    @pytest.mark.parametrize("degree, discriminant", [(2, 5), (3, 49), (2, 4), (1, 1)])
    def test_minkowski_bound_admits_real_fields(self, degree, discriminant):
        # Q(sqrt 5), the cubic field of discriminant 49, and the bound itself at n = 2
        profile = FieldProfile.from_json(f'{{"degree": {degree}, "discriminant": {discriminant}}}')
        assert (profile.degree, profile.discriminant_abs) == (degree, discriminant)
        assert len(profile.archimedean_places) == degree

    @pytest.mark.parametrize("degree, discriminant", [(2, 1), (3, 20), (4, 113), (10**9, 5)])
    def test_minkowski_bound_rejects_impossible_pairs(self, degree, discriminant):
        # (n**n / n!)**2 is 4, 20.25 and 113.8 for n = 2, 3, 4
        with pytest.raises(ValueError, match="Minkowski's bound"):
            FieldProfile.from_json(f'{{"degree": {degree}, "discriminant": {discriminant}}}')
        with pytest.raises(ValueError, match="Minkowski's bound"):
            FieldProfile(degree, discriminant, ())

    def test_place_validation(self):
        with pytest.raises(ValueError):
            FinitePlace("bad", 6)  # not a prime power
        FinitePlace("ok", 8)
        FinitePlace("ok9", 9)

    def test_parse_factored_level(self):
        assert parse_factored_level("2^3*5").norm() == 40
        assert parse_factored_level("1") == LevelIdeal.unit()
        assert parse_factored_level("12").norm() == 12

    @pytest.mark.parametrize(
        "text, token",
        [("2^3^4", "2^3^4"), ("2^", "2^"), ("v2", "v2"), ("2*", ""), ("2^1.5", "2^1.5")],
    )
    def test_bad_level_token_is_named(self, text, token):
        with pytest.raises(ValueError) as exc:
            parse_factored_level(text)
        assert str(exc.value) == f"cannot parse level token {token!r} (use p^e*q, e.g. 2^3*5)"
