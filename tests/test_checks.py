"""The check suite itself: crash isolation and the census oracle's power."""

import math

import numpy as np
import pytest

from rtflab import characters, chunked, lfunctions, measures, rtf_constants
from rtflab.characters import DirichletCharacter, unit_group
from rtflab.checks import (
    _xi_matches,
    check_characters,
    check_rtf_constants,
    run_all_checks,
    xi_matches_brute_force,
)
from rtflab.fields import LevelIdeal


class TestCrashIsolation:
    def test_crashing_oracle_fails_only_its_own_check(self, monkeypatch):
        expected = [r.name for r in run_all_checks()]
        assert len(expected) == 33

        def boom(m):
            raise RuntimeError(f"oracle unavailable at m={m}")

        monkeypatch.setattr(characters, "brute_force_phase_tables", boom)
        results = run_all_checks()
        assert [r.name for r in results] == expected
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["characters.xi_vs_bruteforce"]
        assert failed[0].observed == math.inf
        assert "oracle unavailable at m=1" in failed[0].detail

    def test_crashing_laurent_fails_only_its_consumers(self, monkeypatch):
        expected = [r.name for r in run_all_checks()]
        assert len(expected) == 33

        def boom(xi):
            raise RuntimeError("closed-form Laurent data unavailable")

        monkeypatch.setattr(lfunctions, "laurent_at_1", boom)
        results = run_all_checks()
        assert [r.name for r in results] == expected
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == [
            "rtf.edge_taylor_vs_numeric",
            "rtf.laurent_two_widths",
            "rtf.edge_coefficients_reconstruct",
            "rtf.orbit_constant_flat_nontrivial",
            "rtf.orbit_constant_log_growth",
        ]
        for r in failed:
            assert r.observed == math.inf
            assert r.detail == "RuntimeError: closed-form Laurent data unavailable"

    def test_crashing_plancherel_fails_only_its_consumers(self, monkeypatch):
        expected = [r.name for r in run_all_checks()]
        assert len(expected) == 33

        def boom(q, sign):
            raise RuntimeError("per-prime density unavailable")

        monkeypatch.setattr(measures, "plancherel", boom)
        results = run_all_checks()
        assert [r.name for r in results] == expected
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["measures.mass_plancherel", "measures.refinement_monotone"]
        for r in failed:
            assert r.observed == math.inf
            assert r.detail == "RuntimeError: per-prime density unavailable"

    def test_crash_in_shared_set_up_fails_only_its_consumers(self, monkeypatch):
        expected = [r.name for r in run_all_checks()]

        def boom(*args, **kwargs):
            raise RuntimeError("no quadratic character")

        monkeypatch.setattr(DirichletCharacter, "quadratic", boom)
        results = run_all_checks()
        assert [r.name for r in results] == expected
        assert [r.name for r in results if not r.passed] == [
            "characters.l_one_golden_ratio",
            "rtf.edge_taylor_vs_numeric",
            "rtf.laurent_two_widths",
            "rtf.edge_coefficients_reconstruct",
            "rtf.orbit_constant_flat_nontrivial",
            "rtf.intertwining_involution",
        ]

    def test_every_group_check_keeps_its_name(self, monkeypatch):
        from rtflab import checks

        def boom(*args, **kwargs):
            raise ValueError("broken")

        monkeypatch.setattr(checks, "_level", boom)
        monkeypatch.setattr(checks, "r_weight", boom)
        monkeypatch.setattr(checks, "period_constant", boom)
        monkeypatch.setattr(checks, "digamma", boom)
        results = checks.check_fields(None) + checks.check_local_factors(None) + checks.check_gamma(None)
        failed = {r.name for r in results if not r.passed}
        assert [r.name for r in results] == [
            "fields.norm_multiplicative",
            "fields.support_partition",
            "fields.square_divisor_count",
            "local.r_weight_nonnegative",
            "local.satake_ratio_open_set",
            "local.parity_vanishing_exact",
            "local.period_constant_at_zero",
            "local.sum_product_identity",
            "gamma.lanczos_vs_reflection",
            "gamma.digamma_classical_values",
        ]
        assert failed == {
            "fields.norm_multiplicative",
            "fields.support_partition",
            "fields.square_divisor_count",
            "local.r_weight_nonnegative",
            "local.parity_vanishing_exact",
            "local.period_constant_at_zero",
            "gamma.digamma_classical_values",
        }

    def test_xi_enumerated_once_per_modulus(self, monkeypatch):
        calls = []
        honest = characters.enumerate_xi

        def counting(n, *args, **kwargs):
            calls.append(n.norm())
            return honest(n, *args, **kwargs)

        monkeypatch.setattr(characters, "enumerate_xi", counting)
        results = check_characters(None, census_limit=12, gauss_limit=5)
        assert all(r.passed for r in results)
        assert sorted(calls) == [m * m for m in range(1, 13)]

    def test_census_bound_enumerates_when_the_oracle_crashed(self, monkeypatch):
        def boom(m):
            raise RuntimeError("oracle unavailable")

        monkeypatch.setattr(characters, "brute_force_phase_tables", boom)
        by_name = {r.name: r for r in check_characters(None, census_limit=12, gauss_limit=5)}
        assert not by_name["characters.xi_vs_bruteforce"].passed
        assert by_name["characters.census_bound"].passed
        assert by_name["characters.census_bound"].observed == 0.0

    def test_every_character_check_keeps_its_name(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("broken")

        for name in ("brute_force_phase_tables", "gauss_sums_for_modulus", "enumerate_xi", "l_one"):
            monkeypatch.setattr(characters, name, boom)
        monkeypatch.setattr(characters.QuadraticCharacterProfile, "from_signs", boom)
        results = check_characters(None, census_limit=5, gauss_limit=5)
        assert [r.name for r in results] == [
            "characters.eta_tilde_multiplicative",
            "characters.gauss_modulus_sq",
            "characters.xi_vs_bruteforce",
            "characters.census_bound",
            "characters.l_one_golden_ratio",
        ]
        for r in results:
            assert not r.passed
            assert r.observed == math.inf
            assert r.detail == "ValueError: broken"


class TestCrashIsolationForked(TestCrashIsolation):
    """The same cases with the six groups in two chunks, the second forked:
    a crash in the child's groups must come back as that check's failure."""

    @pytest.fixture(autouse=True)
    def two_chunks(self, monkeypatch):
        monkeypatch.setattr(chunked, "chunk_count", lambda items, per_chunk: 2)


class TestCensusOracleSensitivity:
    """Planted defects in the structured side must be flagged for some m <= 60.

    The structured side is the character grid: `enumerate_xi` reads parity
    from `parity_vector`, and the matcher reads every listed character's
    phases from one `phase_matrix` per conductor.
    """

    def test_all_characters_claimed_even(self, monkeypatch):
        # A zero parity vector gives every exponent row the phase 0 at -1.
        monkeypatch.setattr(characters, "parity_vector", lambda m: (0,) * len(unit_group(m).orders))
        assert len(characters.enumerate_xi(25)) == 4  # the two odd characters mod 5 too
        assert any(not xi_matches_brute_force(m) for m in range(1, 61))

    def test_doubled_phases(self, monkeypatch):
        honest = characters.phase_matrix

        def doubled(m, exponents, residues):
            return 2 * honest(m, exponents, residues) % unit_group(m).exponent

        monkeypatch.setattr(characters, "phase_matrix", doubled)
        assert any(not xi_matches_brute_force(m) for m in range(1, 61))

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 36, 60])
    def test_honest_route_matches(self, m):
        assert xi_matches_brute_force(m)

    def test_character_listed_twice(self):
        xs = characters.enumerate_xi(LevelIdeal.from_integer(144))
        assert _xi_matches(12, xs)
        assert not _xi_matches(12, xs + xs[:1])
        assert not _xi_matches(12, xs[1:])


class TestEdgeSumSensitivity:
    """`rtf.edge_taylor_vs_numeric` compares the production sum over choice
    assignments (`assignment_sum`) with the enumeration of every assignment."""

    def test_forgotten_empty_assignment_term_is_flagged(self, monkeypatch):
        honest = rtf_constants.assignment_sum

        def without_empty_term(n, section_sign, jet_at):
            t0, t1, t2 = honest(n, section_sign, jet_at)
            return t0 - 1.0, t1, t2

        monkeypatch.setattr(rtf_constants, "assignment_sum", without_empty_term)
        results = check_rtf_constants(None)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["rtf.edge_taylor_vs_numeric"]
        assert 1e-3 < failed[0].observed < math.inf
