"""The check suite itself: crash isolation and the census oracle's power."""

import math

import numpy as np
import pytest

from rtflab import characters, lfunctions
from rtflab.characters import DirichletCharacter, unit_group
from rtflab.checks import check_characters, run_all_checks, xi_matches_brute_force


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
            "rtf.laurent_two_widths",
            "rtf.edge_coefficients_reconstruct",
            "rtf.orbit_constant_flat_nontrivial",
            "rtf.orbit_constant_log_growth",
        ]
        for r in failed:
            assert r.observed == math.inf
            assert r.detail == "RuntimeError: closed-form Laurent data unavailable"

    def test_every_character_check_keeps_its_name(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("broken")

        for name in ("brute_force_phase_tables", "gauss_sums_for_modulus", "character_census", "l_one"):
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


class TestCensusOracleSensitivity:
    """Planted defects in the structured side must be flagged for some m <= 60."""

    def test_all_characters_claimed_even(self, monkeypatch):
        monkeypatch.setattr(DirichletCharacter, "is_even", lambda self: True)
        assert any(not xi_matches_brute_force(m) for m in range(1, 61))

    def test_doubled_phases(self, monkeypatch):
        honest = DirichletCharacter.phases

        def doubled(self):
            k = honest(self)
            return np.where(k >= 0, 2 * k % unit_group(self.modulus).exponent, -1)

        monkeypatch.setattr(DirichletCharacter, "phases", doubled)
        assert any(not xi_matches_brute_force(m) for m in range(1, 61))

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 36, 60])
    def test_honest_route_matches(self, m):
        assert xi_matches_brute_force(m)
