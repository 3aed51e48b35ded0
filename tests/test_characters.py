import cmath
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from rtflab.characters import (
    DirichletCharacter,
    census_proof_bound,
    enumerate_xi,
    gauss_sum,
    gauss_sums_for_modulus,
    is_admissible_level,
    parity_vector,
    phase_matrix,
    primitive_axes,
    unit_group,
)
from rtflab.cli import main
from rtflab.errors import RamifiedOverlapError
from rtflab.fields import LevelIdeal, RATIONALS, parse_factored_level
from rtflab.lfunctions import laurent_at_1
from rtflab.oracles import (
    brute_force_phase_tables,
    completed_l,
    conductor_by_divisor_test,
    kronecker_symbol,
)

P = RATIONALS.place_for_prime


def L(spec):
    return LevelIdeal.from_map({P(p): e for p, e in spec.items()})


def enumerate_character_group(m):
    """Every character modulo m, in lexicographic exponent order: the grid
    oracle that the axis masks and the census are read against."""
    return [DirichletCharacter(m, e) for e in product(*map(range, unit_group(m).orders))]


# ---------------------------------------------------------------------------
# independent oracles


def unit_phases(chi: DirichletCharacter) -> dict[int, int]:
    """The integer phases of chi at the units mod its modulus, by residue:
    its `phase_matrix` column."""
    units = np.frombuffer(unit_group(chi.modulus).residues, dtype=np.int64)
    column = phase_matrix(chi.modulus, np.array([chi.exponents], dtype=np.int64), units)[:, 0]
    return dict(zip(units.tolist(), column.tolist()))


def brute_even_primitive_count(c: int) -> int:
    """Even primitive characters mod c among the subgroup-extension rows:
    phase 0 at the column of c - 1, and conductor c by the divisor test."""
    N, units, phases = brute_force_phase_tables(c)
    rows = [dict(zip(units, row)) for row in phases.tolist()]
    return sum(1 for phase in rows if phase[c - 1] == 0 and conductor_by_divisor_test(c, phase) == c)


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
        assert len(g.residues) == phi if m > 1 else 1
        assert len(g.grid_index) == m
        assert sorted(g.grid_index) == [-1] * (m - len(g.residues)) + list(range(len(g.residues)))

    @pytest.mark.parametrize("m", [1, 2, 8, 45, 56, 100, 171_072])
    def test_log_table_in_lexicographic_grid_order(self, m):
        # one walk of the discrete-log grid, first axis slowest, each unit
        # at the grid index of its exponent vector x, with value prod g_i**x_i
        g = unit_group(m)
        assert [g.log(a) for a in g.residues] == list(product(*map(range, g.orders)))
        for i, a in enumerate(g.residues):
            assert g.grid_index[a] == i
            value = 1 % m
            for gen, e in zip(g.generators, g.log(a)):
                value = value * pow(gen, e, m) % m
            assert value == a

    def test_log_table_consistency(self):
        g = unit_group(45)
        for a in range(-45, 90):
            logs = g.log(a)
            if math.gcd(a, 45) != 1:
                assert logs is None
                continue
            value = 1
            for gen, e in zip(g.generators, logs):
                value = value * pow(gen, e, 45) % 45
            assert value == a % 45

    def test_tables_up_to_300_are_small(self):
        # One int64 per unit and one per residue: about 0.76 MB for every
        # m <= 300, where a dict of exponent tuples per unit held 2.7 MB.
        unit_group.cache_clear()
        tracemalloc.start()
        try:
            groups = [unit_group(m) for m in range(1, 301)]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(g.size for g in groups) == 27_398
        assert held < 1_000_000


class TestConductor:
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 8, 9, 12, 15, 16, 21, 24, 27, 32, 40, 72, 120])
    def test_analytic_matches_divisor_test(self, m):
        for chi in enumerate_character_group(m):
            assert chi.conductor() == conductor_by_divisor_test(m, unit_phases(chi))

    def test_parity_multiplicative(self):
        for m in (5, 8, 12):
            for chi in enumerate_character_group(m):
                v = chi.value(m - 1 if m > 2 else 1)
                assert abs(v - (1.0 if chi.is_even() else -1.0)) < 1e-12


def quadratic_by_filter(m: int) -> DirichletCharacter | None:
    """`DirichletCharacter.quadratic` by its definition: every character mod
    m of order 2 that the divisor test finds primitive, in lexicographic
    order; the first even one, else the first; None when there is none."""
    real = [
        chi
        for chi in enumerate_character_group(m)
        if chi.order() == 2 and conductor_by_divisor_test(m, unit_phases(chi)) == m
    ]
    return next((chi for chi in real if chi.is_even()), real[0] if real else None)


class TestConductorRule:
    """`conductor()` and the `primitive_axes` masks share one per-axis rule
    (`axis_conductor_exponents`), so each is pinned to the divisor-test
    conductor, which reads only character values, rather than to the other."""

    def test_conductor_and_masks_match_divisor_test_up_to_100(self):
        for m in range(1, 101):
            axes = primitive_axes(m)
            for chi in enumerate_character_group(m):
                f = conductor_by_divisor_test(m, unit_phases(chi))
                assert chi.conductor() == f, (m, chi.exponents)
                masked = axes is not None and all(axis[e] for axis, e in zip(axes, chi.exponents))
                assert masked == (f == m), (m, chi.exponents)

    def test_quadratic_matches_enumerate_and_filter(self):
        found = 0
        for m in range(1, 400):
            expected = quadratic_by_filter(m)
            if expected is None:
                with pytest.raises(ValueError):
                    DirichletCharacter.quadratic(m)
                continue
            assert DirichletCharacter.quadratic(m) == expected, m
            found += 1
        assert found > 100


class TestGaussSums:
    def test_trivial_modulus(self):
        assert gauss_sum(DirichletCharacter.trivial(1)) == 1.0 + 0.0j

    def test_quadratic_mod5_real_positive(self):
        tau = gauss_sum(DirichletCharacter.quadratic(5))
        assert tau == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_quadratic_mod3_imaginary(self):
        tau = gauss_sum(DirichletCharacter.quadratic(3))
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
            tau = gauss_sum(chi)
            assert abs(tau) == pytest.approx(math.sqrt(m), abs=1e-10)
            # tau(conj) = chi(-1) conj(tau), conj chi having the negated exponents
            tau_bar = gauss_sum(DirichletCharacter(m, tuple(-e for e in chi.exponents)))
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
                    assert abs(gauss_sum(chi) / math.sqrt(m)) == pytest.approx(1.0, abs=1e-12)


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
                worst = max(worst, abs(gauss_sum(DirichletCharacter(m, e)) - tau))
                count += 1
        assert count > 1000
        assert worst <= 1e-12

    def test_real_even_primitive_has_tau_sqrt_m(self):
        # tau(chi) = sqrt(m) for a real even primitive chi (Gauss): root
        # number 1, which `lfunctions` and `rtf_constants` take as given for
        # every eta they accept instead of computing a Gauss sum.
        seen = 0
        for m in range(1, 101):
            for chi in enumerate_character_group(m):
                if chi.order() <= 2 and chi.is_even() and chi.is_primitive():
                    assert abs(gauss_sum(chi) / math.sqrt(m) - 1.0) <= 1e-14
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
            assert len(xs) == 1 + brute_even_primitive_count(p)

    def test_level_16(self):
        # conductors c with c^2 | 16: 1, 2, 4 -> even primitive mod 4: none
        xs = enumerate_xi(L({2: 4}))
        brute = sum(brute_even_primitive_count(c) for c in (1, 2, 4))
        assert len(xs) == brute == 1

    def test_census_examples(self):
        assert len(enumerate_xi(LevelIdeal.unit())) == 1
        assert len(enumerate_xi(L({5: 2}))) == 2
        # The only nontrivial character mod 3 is odd, so the census at 9 stays 1
        # (value frozen from the brute-force oracle).
        assert len(enumerate_xi(L({3: 2}))) == 1
        assert len(enumerate_xi(L({3: 2}))) == 1 + brute_even_primitive_count(3)

    def test_census_bound(self):
        for m in range(1, 60):
            n = LevelIdeal.from_integer(m * m)
            assert len(enumerate_xi(n)) <= census_proof_bound(n) + 1e-9

    def test_even_primitive_only(self):
        for chi in enumerate_xi(L({2: 6, 5: 2})):
            assert chi.is_even()
            assert chi.is_primitive()


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


def l_one(chi: DirichletCharacter) -> float:
    """L(1, chi) of a real even primitive chi mod m by its one route: the
    Laurent constant c0 = Lambda(1, chi) = sqrt(m) L(1, chi)."""
    return laurent_at_1(chi).c0 / math.sqrt(chi.modulus)


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

    def test_laurent_vs_series_even_primitive(self):
        for m in (5, 8, 12, 13):
            for chi in enumerate_character_group(m):
                if not (chi.is_primitive() and chi.is_even() and chi.order() == 2):
                    continue
                series = dirichlet_series_l_one(chi)
                assert l_one(chi) == pytest.approx(series, abs=1e-8)

    def test_trivial_is_a_pole(self):
        # L(1) of the trivial character is a pole: the Laurent data carry
        # residue 1, and an imprimitive trivial character is refused.
        assert laurent_at_1(DirichletCharacter.trivial()).residue == 1.0
        with pytest.raises(ValueError):
            laurent_at_1(DirichletCharacter.trivial(6))

    def test_completed_accessor(self):
        # (m/pi)**(1/2) Gamma(1/2) = sqrt(m): the completed L at 1 is sqrt(m) L(1)
        chi5 = DirichletCharacter.quadratic(5)
        completed = completed_l(1.0, chi5).real
        assert completed == pytest.approx(math.sqrt(5.0) * l_one(chi5), abs=1e-12)


PRIMES_TO_97 = [p for p in range(2, 98) if all(p % d for d in range(2, p))]


def _squarefree(n):
    return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


# The positive fundamental discriminants up to 100: D = 1 mod 4 squarefree,
# or D = 4 d with d = 2, 3 mod 4 squarefree.
EVEN_FUNDAMENTAL = [
    D for D in range(5, 101)
    if D % 4 == 1 and _squarefree(D) or D % 4 == 0 and D // 4 % 4 in (2, 3) and _squarefree(D // 4)
]


class TestSignAt:
    def test_eta_tilde_unit(self):
        assert DirichletCharacter.quadratic(5).value_on_ideal(LevelIdeal.unit()) == 1

    def test_eta_tilde_square(self):
        eta = DirichletCharacter.quadratic(5)  # 3 is a non-residue mod 5
        assert eta.value_on_ideal(L({3: 2})) == 1
        assert eta.value_on_ideal(L({3: 1})) == -1

    def test_eta_tilde_multiplicative(self):
        eta = DirichletCharacter.quadratic(5)  # signs -1, -1, +1 at 3, 7, 11
        n1, n2 = L({3: 1, 7: 2}), L({11: 3})
        assert eta.value_on_ideal(n1 * n2) == eta.value_on_ideal(n1) * eta.value_on_ideal(n2) == -1

    def test_ramified_overlap_raises(self):
        with pytest.raises(RamifiedOverlapError):
            DirichletCharacter.quadratic(5).value_on_ideal(L({5: 1}))

    def test_signs_of_the_legendre_symbol_mod_5(self):
        eta = DirichletCharacter.quadratic(5)
        # Legendre symbol mod 5: 2, 3 are non-residues; 11 = 1 mod 5 is a residue
        assert eta.sign_at(P(2)) == -1
        assert eta.sign_at(P(3)) == -1
        assert eta.sign_at(P(11)) == 1

    def test_trivial_character_is_plus_one_at_every_prime(self):
        eta = DirichletCharacter.trivial()
        assert len(PRIMES_TO_97) == 25
        assert [eta.sign_at(P(p)) for p in PRIMES_TO_97] == [1] * 25

    def test_thirty_even_fundamental_discriminants(self):
        assert len(EVEN_FUNDAMENTAL) == 30
        assert EVEN_FUNDAMENTAL[:6] == [5, 8, 12, 13, 17, 21]

    @pytest.mark.parametrize("D", EVEN_FUNDAMENTAL)
    def test_sign_at_is_the_kronecker_symbol(self, D):
        eta = DirichletCharacter.quadratic(D)
        assert eta.modulus == D and eta.is_even()
        for p in PRIMES_TO_97:
            if D % p:
                assert eta.sign_at(P(p)) == kronecker_symbol(D, p), p
            else:
                assert kronecker_symbol(D, p) == 0
                with pytest.raises(RamifiedOverlapError):
                    eta.sign_at(P(p))

    def test_kronecker_symbol_against_the_squares(self):
        # (D/p) is +1 where D is a nonzero square mod p; at p = 2, for
        # D = 1 mod 4, it is +1 where D is a square mod 8
        for D in [d for d in range(-60, 61) if d]:
            for p in PRIMES_TO_97[1:11]:
                squares = {x * x % p for x in range(1, p)}
                want = 0 if D % p == 0 else (1 if D % p in squares else -1)
                assert kronecker_symbol(D, p) == want, (D, p)
            if D % 4 == 1:
                assert kronecker_symbol(D, 2) == (1 if D % 8 in {x * x % 8 for x in range(8)} else -1), D
            elif D % 2 == 0:
                assert kronecker_symbol(D, 2) == 0

    def test_order_four_character_mod_5_is_not_real(self):
        chi = DirichletCharacter(5, (1,))
        assert chi.order() == 4
        # chi(2) and chi(3) are +-i; chi(11) = chi(1) and chi(19) = chi(2)**2
        for p in (2, 3):
            with pytest.raises(ValueError):
                chi.sign_at(P(p))
        assert (chi.sign_at(P(11)), chi.sign_at(P(19))) == (1, -1)
        with pytest.raises(RamifiedOverlapError):
            chi.sign_at(P(5))


class TestAdmissibleLevels:
    def setup_method(self):
        self.eta = DirichletCharacter.quadratic(5)  # signs -1, -1, +1 at 3, 7, 11
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
        N, units, phases = brute_force_phase_tables(m)
        phi = max(1, sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)) if m > 1 else 1
        assert len(phases) == N == phi
        column = {a: i for i, a in enumerate(units)}
        for row in phases.tolist():
            for a in units[:6]:
                for b in units[:6]:
                    assert (row[column[a]] + row[column[b]]) % N == row[column[a * b % m]]

    def test_matches_structured_enumeration(self):
        for m in (5, 8, 12, 45):
            N, units, phases = brute_force_phase_tables(m)
            # integer phases mod L scaled to mod N (L divides N = phi(m))
            scale = N // unit_group(m).exponent
            structured = set()
            for chi in enumerate_character_group(m):
                structured.add(tuple(sorted((a, chi.phase_index(a) * scale) for a in units)))
            brute = {tuple(sorted(zip(units, row))) for row in phases.tolist()}
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
    """Every value accessor agrees with the single-residue integer phase
    `phase_index`."""

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 9, 16, 32, 45, 120, 200])
    def test_representations_agree(self, m):
        L = unit_group(m).exponent
        for chi in enumerate_character_group(m):
            phases = unit_phases(chi)
            for a in range(m):
                exact = chi.phase_index(a)
                if exact is None:
                    assert a not in phases
                    assert math.gcd(a, m) != 1
                    assert chi.value(a) == 0
                    continue
                k = phases[a]
                assert 0 <= k < L
                assert k == exact
                assert abs(chi.value(a) - cmath.exp(2j * math.pi * k / L)) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 9, 16, 32, 45, 120, 200])
    def test_brute_force_tables_and_fraction_view(self, m):
        N, units, phases = brute_force_phase_tables(m)
        assert N == unit_group(m).size
        assert phases.dtype == np.int64
        chars = enumerate_character_group(m)
        # the integer oracle spans the same group as the structured route
        structured = {
            tuple(unit_phases(chi)[a] * (N // unit_group(m).exponent) for a in units)
            for chi in chars
        }
        assert structured == set(map(tuple, phases.tolist()))
        # read as exact phases k / N, the rows are the single-residue phases
        # k' / L of `phase_index` (compared cross-multiplied, k L == k' N)
        L = unit_group(m).exponent
        exact = {tuple(chi.phase_index(a) * N for a in units) for chi in chars}
        assert exact == {tuple(k * L for k in row) for row in phases.tolist()}

    def test_single_residue_path_loads_no_numpy(self):
        # parity and conductor at a census-sized modulus read single logs only
        script = """
import sys
from rtflab.characters import DirichletCharacter, parity_vector, unit_group
m = 171_072
g = unit_group(m)
chi = DirichletCharacter(m, tuple(1 for _ in g.orders))
assert chi.phase_index(m - 1) == sum(e * s for e, s in zip(chi.exponents, parity_vector(m))) % g.exponent
assert chi.phase_index(m + 1) == 0
assert chi.phase_index(2) is None
chi.is_even()
chi.conductor()
print("numpy" in sys.modules)
"""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_phase_matrix_equals_phase_index_at_every_unit(self):
        for m in range(1, 201):
            chars = enumerate_character_group(m)
            units = [a for a in range(m) if math.gcd(a, m) == 1]
            exps = np.array([chi.exponents for chi in chars], dtype=np.int64)
            exps = exps.reshape(len(chars), len(unit_group(m).orders))
            table = phase_matrix(m, exps, np.array(units, dtype=np.int64))
            assert table.shape == (len(units), len(chars))
            assert table.tolist() == [[chi.phase_index(a) for chi in chars] for a in units]
