import cmath
import hashlib
import importlib.util
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from rtflab.characters import (
    _phase_logs,
    DirichletCharacter,
    QuadraticCharacterProfile,
    adelic_gauss_sum,
    brute_force_character_table,
    brute_force_conductor,
    brute_force_is_even,
    brute_force_phase_tables,
    character_census,
    census_proof_bound,
    enumerate_character_group,
    enumerate_xi,
    eta_tilde,
    gauss_sum,
    gauss_sums_for_modulus,
    is_admissible_level,
    l_one,
    l_one_completed,
    parity_vector,
    primitive_axes,
    unit_group,
)
from rtflab.cli import main
from rtflab.errors import RamifiedOverlapError
from rtflab.fields import LevelIdeal, RATIONALS, parse_factored_level

P = RATIONALS.place_for_prime


def L(spec):
    return LevelIdeal.from_map({P(p): e for p, e in spec.items()})


# ---------------------------------------------------------------------------
# independent oracles


def direct_gauss_sum(chi: DirichletCharacter) -> complex:
    """Plain direct summation, no numpy, no batching."""
    m = chi.modulus
    if m == 1:
        return 1.0 + 0.0j
    acc = 0.0 + 0.0j
    for a in range(1, m + 1):
        acc += chi.value(a) * cmath.exp(2j * math.pi * a / m)
    return acc


def dirichlet_series_l_one(chi: DirichletCharacter, blocks: int = 200_000) -> float:
    """L(1, chi) by grouped partial sums with Richardson acceleration.

    Complete blocks of length m decay like 1/k^2, so the tail after K blocks
    is c/K + O(1/K^2); extrapolating the partial sums at K, K/2 and K/4 kills
    the 1/K and 1/K^2 terms.
    """
    m = chi.modulus
    values = [chi.value(a).real for a in range(m)]
    partial = []
    targets = {blocks // 4: None, blocks // 2: None, blocks: None}
    acc = 0.0
    for k in range(blocks):
        base = k * m
        acc += sum(values[a % m] / (base + a) for a in range(1, m + 1))
        if (k + 1) in targets:
            partial.append(acc)
    s4, s2, s1 = partial  # at K/4, K/2, K blocks
    # Fit acc(K) = S - c1/K - c2/K^2 on the three prefix lengths.
    k1 = float(blocks)
    import numpy as np

    mat = np.array(
        [[1.0, -4.0 / k1, -16.0 / k1**2], [1.0, -2.0 / k1, -4.0 / k1**2], [1.0, -1.0 / k1, -1.0 / k1**2]]
    )
    sol = np.linalg.solve(mat, np.array([s4, s2, s1]))
    return float(sol[0])


# ---------------------------------------------------------------------------


class TestUnitGroup:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 9, 12, 16, 24, 45, 56, 100])
    def test_group_size_is_totient(self, m):
        g = unit_group(m)
        phi = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1) if m > 1 else 1
        assert g.size == phi
        assert len(g.log_table) == phi if m > 1 else 1

    def test_log_table_consistency(self):
        g = unit_group(45)
        for a, logs in g.log_table.items():
            value = 1
            for gen, e in zip(g.generators, logs):
                value = value * pow(gen, e, 45) % 45
            assert value == a


class TestConductor:
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 8, 9, 12, 15, 16, 21, 24, 27, 32, 40, 72, 120])
    def test_analytic_matches_divisor_test(self, m):
        for chi in enumerate_character_group(m):
            assert chi.conductor() == chi.conductor_by_divisor_test()

    def test_primitive_reduction(self):
        for m in (12, 45, 40):
            for chi in enumerate_character_group(m):
                prim = chi.primitive_character()
                assert prim.modulus == chi.conductor()
                assert prim.is_primitive()
                # agreement on residues coprime to the big modulus
                for a in range(1, m + 1):
                    if math.gcd(a, m) == 1:
                        assert chi.phase(a) == prim.phase(a)

    def test_parity_multiplicative(self):
        for m in (5, 8, 12):
            for chi in enumerate_character_group(m):
                v = chi.value(m - 1 if m > 2 else 1)
                assert abs(v - (1.0 if chi.is_even() else -1.0)) < 1e-12


class TestGaussSums:
    def test_trivial_modulus(self):
        assert gauss_sum(DirichletCharacter.trivial(1)).value == 1.0 + 0.0j

    def test_quadratic_mod5_real_positive(self):
        tau = gauss_sum(DirichletCharacter.quadratic(5)).value
        assert tau == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_quadratic_mod3_imaginary(self):
        tau = gauss_sum(DirichletCharacter.quadratic(3)).value
        assert tau == pytest.approx(1j * math.sqrt(3.0), abs=1e-12)

    def test_rejects_imprimitive(self):
        chi = DirichletCharacter.trivial(4)
        with pytest.raises(ValueError):
            gauss_sum(chi)

    @pytest.mark.parametrize("m", [5, 7, 8, 9, 11, 12, 13, 16, 40])
    def test_modulus_and_conjugation(self, m):
        for chi in enumerate_character_group(m):
            if not chi.is_primitive():
                continue
            tau = gauss_sum(chi).value
            assert abs(tau) == pytest.approx(math.sqrt(m), abs=1e-10)
            # tau(conj) = chi(-1) conj(tau)
            tau_bar = gauss_sum(chi.conjugate()).value
            sign = chi.value(m - 1)
            assert tau_bar == pytest.approx(sign * tau.conjugate(), abs=1e-10)

    def test_batched_matches_direct_summation(self):
        for m in (5, 8, 12, 35):
            for e, tau in gauss_sums_for_modulus(m):
                assert tau == pytest.approx(direct_gauss_sum(DirichletCharacter(m, e)), abs=1e-10)

    def test_adelic_normalization_modulus_one(self):
        for m in (5, 8, 13):
            for chi in enumerate_character_group(m):
                if chi.is_primitive():
                    assert abs(adelic_gauss_sum(chi)) == pytest.approx(1.0, abs=1e-12)


class TestGaussSumRoutes:
    """The scalar `gauss_sum` (one character, phase by phase) and the batched
    `gauss_sums_for_modulus` (one inverse FFT over the discrete-log grid per
    modulus) are independent routes; both must give the same tau for every
    primitive chi."""

    def test_scalar_matches_batched_up_to_100(self):
        worst = 0.0
        count = 0
        for m in range(1, 101):
            for e, tau in gauss_sums_for_modulus(m):
                worst = max(worst, abs(gauss_sum(DirichletCharacter(m, e)).value - tau))
                count += 1
        assert count > 1000
        assert worst <= 1e-12

    def test_real_even_primitive_has_tau_sqrt_m(self):
        # tau(chi) = sqrt(m) for a real even primitive chi (Gauss), so the
        # adelic normalization is exactly 1 there.
        seen = 0
        for m in range(1, 101):
            for chi in enumerate_character_group(m):
                if chi.is_real() and chi.is_even() and chi.is_primitive():
                    assert abs(adelic_gauss_sum(chi) - 1.0) <= 1e-14
                    seen += 1
        assert seen > 25


class TestXiCensus:
    def test_unit_level(self):
        xs = enumerate_xi(LevelIdeal.unit())
        assert len(xs) == 1
        assert xs[0].modulus == 1

    def test_p_squared_counts(self):
        # Brute-force oracle: all even primitive characters mod p plus trivial.
        for p in (5, 7, 11, 13):
            xs = enumerate_xi(L({p: 2}))
            brute = 1
            for table in brute_force_character_table(p):
                if brute_force_is_even(table, p) and brute_force_conductor(table, p) == p:
                    brute += 1
            assert len(xs) == brute

    def test_level_16(self):
        # conductors c with c^2 | 16: 1, 2, 4 -> even primitive mod 4: none
        xs = enumerate_xi(L({2: 4}))
        brute = 0
        for c in (1, 2, 4):
            for table in brute_force_character_table(c):
                if brute_force_is_even(table, c) and brute_force_conductor(table, c) == c:
                    brute += 1
        assert len(xs) == brute == 1

    def test_census_examples(self):
        assert character_census(LevelIdeal.unit()) == 1
        assert character_census(L({5: 2})) == 2
        # The only nontrivial character mod 3 is odd, so the census at 9 stays 1
        # (value frozen from the brute-force oracle).
        assert character_census(L({3: 2})) == 1
        brute = 1 + sum(
            1
            for t in brute_force_character_table(3)
            if brute_force_is_even(t, 3) and brute_force_conductor(t, 3) == 3
        )
        assert character_census(L({3: 2})) == brute

    def test_census_bound(self):
        for m in range(1, 60):
            n = LevelIdeal.from_integer(m * m)
            assert character_census(n) <= census_proof_bound(n) + 1e-9

    def test_even_primitive_only(self):
        for chi in enumerate_xi(L({2: 6, 5: 2})):
            assert chi.is_even()
            assert chi.is_primitive()

    def test_json_round_trip(self):
        for chi in enumerate_xi(L({5: 2})):
            again = DirichletCharacter.from_json_dict(chi.to_json_dict())
            assert again == chi


ROOT = Path(__file__).resolve().parent.parent


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


_WL = _bench_workloads()
# The census_scan levels D**2 of bench/workloads.py, keyed by the reach D as
# in bench/reference.json.
CENSUS_LEVELS = [
    (_WL.level_text({p: 2 * f for p, f in d.items()}), str(_WL.reach(d)))
    for d in (_WL.CENSUS_BIG, *_WL.CENSUS_MEDIUM, *_WL.CENSUS_SMALL)
]


@lru_cache(maxsize=None)
def filtered_group(m: int) -> tuple[DirichletCharacter, ...]:
    """Every character mod m, kept when `is_even` and `is_primitive` say so."""
    return tuple(chi for chi in enumerate_character_group(m) if chi.is_even() and chi.is_primitive())


def enumerate_and_filter(n: LevelIdeal) -> list[DirichletCharacter]:
    """The census by its definition, as `enumerate_xi` computed it before it
    read the grid: enumerate each conductor's whole group, then filter."""
    out = [chi for c in n.square_divisor_conductors() for chi in filtered_group(c.norm())]
    return sorted(out, key=lambda c: (c.modulus, c.exponents))


def census_csv(listed: list[DirichletCharacter]) -> str:
    """`rtflab characters` output for a census, formatted as the CLI does."""
    lines = ["modulus,conductor,parity,order"]
    for chi in listed:
        lines.append(f"{chi.modulus},{chi.conductor()},{'even' if chi.is_even() else 'odd'},{chi.order()}")
    return "\n".join(lines) + "\n"


class TestCharacterGrid:
    """The grid helpers against the per-character route, for every m <= 300."""

    def test_masks_match_per_character_tests(self):
        for m in range(1, 301):
            axes = primitive_axes(m)
            sign, L = parity_vector(m), unit_group(m).exponent
            group = enumerate_character_group(m)
            primitive = [
                axes is not None and all(axis[e] for axis, e in zip(axes, chi.exponents))
                for chi in group
            ]
            even = [sum(e * s for e, s in zip(chi.exponents, sign)) % L == 0 for chi in group]
            assert primitive == [chi.is_primitive() for chi in group], m
            assert even == [chi.is_even() for chi in group], m

    def test_gauss_sums_list_the_primitive_characters_in_order(self):
        for m in range(1, 301):
            listed = [e for e, _ in gauss_sums_for_modulus(m)]
            assert listed == [chi.exponents for chi in enumerate_character_group(m) if chi.is_primitive()], m

    def test_no_primitive_character_at_2_mod_4(self):
        for m in range(2, 301, 4):
            assert primitive_axes(m) is None
            assert gauss_sums_for_modulus(m) == []

    def test_census_of_squares_matches_enumerate_and_filter(self):
        for m in range(1, 201):
            n = LevelIdeal.from_integer(m * m)
            assert enumerate_xi(n) == enumerate_and_filter(n), m

    @pytest.mark.parametrize("level,reach", CENSUS_LEVELS, ids=[r for _, r in CENSUS_LEVELS])
    def test_bench_census_levels(self, capsys, level, reach):
        n = parse_factored_level(level)
        oracle = enumerate_and_filter(n)
        assert enumerate_xi(n) == oracle
        assert main(["characters", "--n", level]) == 0
        out = capsys.readouterr().out
        assert out == census_csv(oracle)
        # bench/reference.json holds the output recorded before the grid route.
        recorded = json.loads((ROOT / "bench" / "reference.json").read_text())["characters"][reach]
        assert (out.count("\n") - 1, hashlib.sha256(out.encode()).hexdigest()) == (
            recorded["rows"],
            recorded["sha256"],
        )


class TestLOne:
    def test_golden_ratio_closed_form(self):
        # class-number-formula oracle for the quadratic character mod 5
        expected = 2.0 / math.sqrt(5.0) * math.log((1.0 + math.sqrt(5.0)) / 2.0)
        assert l_one(DirichletCharacter.quadratic(5)) == pytest.approx(expected, abs=1e-9)

    def test_mod8_against_series_oracle(self):
        chi8 = DirichletCharacter.quadratic(8)
        assert chi8.is_even()
        series = dirichlet_series_l_one(chi8)
        assert l_one(chi8) == pytest.approx(series, abs=1e-8)

    def test_digamma_vs_series_even_primitive(self):
        for m in (5, 8, 12, 13):
            for chi in enumerate_character_group(m):
                if not (chi.is_primitive() and chi.is_even() and chi.order() == 2):
                    continue
                series = dirichlet_series_l_one(chi)
                assert float(l_one(chi)) == pytest.approx(series, abs=1e-8)

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            l_one(DirichletCharacter.trivial(1))

    def test_completed_accessor(self):
        chi5 = DirichletCharacter.quadratic(5)
        assert l_one_completed(chi5) == pytest.approx(math.sqrt(5.0) * float(l_one(chi5)), abs=1e-12)


class TestQuadraticProfile:
    def test_eta_tilde_unit(self):
        eta = QuadraticCharacterProfile.from_signs({P(3): -1})
        assert eta_tilde(eta, LevelIdeal.unit()) == 1

    def test_eta_tilde_square(self):
        eta = QuadraticCharacterProfile.from_signs({P(3): -1})
        assert eta_tilde(eta, L({3: 2})) == 1
        assert eta_tilde(eta, L({3: 1})) == -1

    def test_eta_tilde_multiplicative(self):
        eta = QuadraticCharacterProfile.from_signs({P(3): -1, P(7): -1, P(11): 1})
        n1, n2 = L({3: 1, 7: 2}), L({11: 3})
        assert eta_tilde(eta, n1 * n2) == eta_tilde(eta, n1) * eta_tilde(eta, n2)

    def test_ramified_overlap_raises(self):
        chi5 = DirichletCharacter.quadratic(5)
        eta = QuadraticCharacterProfile.from_dirichlet(chi5)
        with pytest.raises(RamifiedOverlapError):
            eta_tilde(eta, L({5: 1}))

    def test_signs_from_dirichlet(self):
        eta = QuadraticCharacterProfile.from_dirichlet(DirichletCharacter.quadratic(5))
        # Legendre symbol mod 5: 2, 3 are non-residues; 11 = 1 mod 5 is a residue
        assert eta.sign_at(P(2)) == -1
        assert eta.sign_at(P(3)) == -1
        assert eta.sign_at(P(11)) == 1


class TestAdmissibleLevels:
    def setup_method(self):
        self.eta = QuadraticCharacterProfile.from_signs(
            {P(3): -1, P(7): -1, P(11): 1}, conductor=L({5: 1})
        )
        self.s = [RATIONALS.archimedean_places[0], P(2)]

    def test_unit_level(self):
        assert is_admissible_level(LevelIdeal.unit(), self.s, self.eta)

    def test_single_minus_place_fails_global_sign(self):
        assert not is_admissible_level(L({3: 1}), self.s, self.eta)

    def test_two_minus_places_pass(self):
        assert is_admissible_level(L({3: 1, 7: 1}), self.s, self.eta)

    def test_plus_place_fails(self):
        assert not is_admissible_level(L({11: 2}), self.s, self.eta)

    def test_overlap_with_s_fails(self):
        assert not is_admissible_level(L({2: 2}), self.s, self.eta)

    def test_overlap_with_conductor_fails(self):
        assert not is_admissible_level(L({5: 2}), self.s, self.eta)


class TestBruteForceOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 12, 16, 21, 36])
    def test_counts_and_multiplicativity(self, m):
        tables = brute_force_character_table(m)
        phi = max(1, sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)) if m > 1 else 1
        assert len(tables) == phi
        for table in tables:
            residues = list(table)
            for a in residues[:6]:
                for b in residues[:6]:
                    assert (table[a] + table[b]) % 1 == table[a * b % m if m > 1 else 0]

    def test_matches_structured_enumeration(self):
        for m in (5, 8, 12, 45):
            structured = set()
            for chi in enumerate_character_group(m):
                structured.add(
                    tuple(sorted((a, chi.phase(a)) for a in range(1, m + 1) if math.gcd(a, m) == 1))
                )
            brute = set()
            for table in brute_force_character_table(m):
                brute.add(tuple(sorted(table.items())))
            assert structured == brute


def dict_phase_tables(m):
    """Subgroup extension with one dict of phases per character: the
    reference for the matrix form of `brute_force_phase_tables`."""
    if m == 1:
        return 1, [{0: 0}]
    residues = [a for a in range(1, m) if math.gcd(a, m) == 1]
    N = len(residues)
    chars = [{1: 0}]
    for g in residues:
        nxt = []
        for chi in chars:
            if g in chi:
                nxt.append(chi)
                continue
            r = 1
            x = g
            while x not in chi:
                x = x * g % m
                r += 1
            base = chi[x]
            powers = [1]
            for _ in range(r - 1):
                powers.append(powers[-1] * g % m)
            for j in range(r):
                phase_g = base // r + j * (N // r)
                ext = dict(chi)
                for i in range(1, r):
                    shift = i * phase_g % N
                    for h, ph in chi.items():
                        ext[h * powers[i] % m] = (ph + shift) % N
                nxt.append(ext)
        chars = nxt
    return N, chars


def test_matrix_oracle_equals_dict_oracle():
    # same N, same rows in the same order, same domain in the same order
    for m in range(1, 201):
        N, units, phases = brute_force_phase_tables(m)
        ref_N, tables = dict_phase_tables(m)
        assert N == ref_N
        assert all(list(table) == units for table in tables)
        assert phases.tolist() == [list(table.values()) for table in tables]


class TestIntegerPhases:
    """Every value accessor agrees with the exact boundary accessor `phase`."""

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 9, 16, 32, 45, 120, 200])
    def test_representations_agree(self, m):
        L = unit_group(m).exponent
        for chi in enumerate_character_group(m):
            phases = chi.phases()
            assert phases.shape == (m,)
            for a in range(m):
                exact = chi.phase(a)
                k = int(phases[a])
                if exact is None:
                    assert k == -1
                    assert chi.phase_index(a) is None
                    assert chi.value(a) == 0
                    continue
                assert 0 <= k < L
                assert chi.phase_index(a) == k
                assert Fraction(k, L) == exact
                assert abs(chi.value(a) - cmath.exp(2j * math.pi * k / L)) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 9, 16, 32, 45, 120, 200])
    def test_brute_force_tables_and_fraction_view(self, m):
        N, units, phases = brute_force_phase_tables(m)
        assert N == unit_group(m).size
        assert phases.dtype == np.int64
        view = brute_force_character_table(m)
        assert view == [{a: Fraction(k, N) for a, k in zip(units, row)} for row in phases.tolist()]
        # the integer oracle spans the same group as the structured route
        structured = {
            tuple(int(chi.phases()[a]) * (N // unit_group(m).exponent) for a in units)
            for chi in enumerate_character_group(m)
        }
        assert structured == set(map(tuple, phases.tolist()))

    def test_single_residue_path_builds_no_table(self):
        # parity and conductor at a census-sized modulus read single logs only
        m = 171_072
        g = unit_group(m)
        chi = DirichletCharacter(m, tuple(1 for _ in g.orders))
        built = _phase_logs.cache_info().currsize
        assert chi.phase_index(m - 1) == chi.phase(m - 1) * g.exponent
        assert chi.phase_index(m + 1) == 0
        assert chi.phase_index(2) is None
        chi.is_even()
        chi.conductor()
        assert _phase_logs.cache_info().currsize == built
