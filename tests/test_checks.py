"""The check suite itself: crash isolation and the census oracle's power."""

import math

import numpy as np
import pytest

from rtflab import characters, chunked, lfunctions, measures, oracles, rtf_constants
from rtflab.characters import DirichletCharacter, unit_group
from rtflab.checks import (
    check_characters,
    check_rtf_constants,
    run_all_checks,
    xi_matches_brute_force,
)
from rtflab.fields import LevelIdeal
from rtflab.special import EULER_GAMMA


class TestCrashIsolation:
    def test_crashing_oracle_fails_only_its_own_check(self, monkeypatch):
        expected = [r.name for r in run_all_checks()]
        assert len(expected) == 33

        def boom(m):
            raise RuntimeError(f"oracle unavailable at m={m}")

        monkeypatch.setattr(oracles, "brute_force_phase_tables", boom)
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

        # `rtf_constants` binds the name at import, so it is patched there too.
        monkeypatch.setattr(lfunctions, "laurent_at_1", boom)
        monkeypatch.setattr(rtf_constants, "laurent_at_1", boom)
        results = run_all_checks()
        assert [r.name for r in results] == expected
        failed = [r for r in results if not r.passed]
        # L(1, chi_5) is read off the Laurent constant c0 too.
        assert [r.name for r in failed] == [
            "characters.l_one_golden_ratio",
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
        # The pushforward checks and the nonnegativity sweep build their
        # per-prime densities through `plancherel` too.
        assert [r.name for r in failed] == [
            "measures.mass_plancherel",
            "measures.pushforward_halfwindow",
            "measures.pushforward_fullwindow_factor2",
            "measures.densities_nonnegative",
            "measures.refinement_monotone",
        ]
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
            "characters.eta_tilde_multiplicative",
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

        monkeypatch.setattr(oracles, "brute_force_phase_tables", boom)
        by_name = {r.name: r for r in check_characters(None, census_limit=12, gauss_limit=5)}
        assert not by_name["characters.xi_vs_bruteforce"].passed
        assert by_name["characters.census_bound"].passed
        assert by_name["characters.census_bound"].observed == 0.0

    def test_every_character_check_keeps_its_name(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("broken")

        monkeypatch.setattr(oracles, "brute_force_phase_tables", boom)
        for name in ("gauss_sums_for_modulus", "enumerate_xi"):
            monkeypatch.setattr(characters, name, boom)
        monkeypatch.setattr(lfunctions, "laurent_at_1", boom)
        monkeypatch.setattr(characters.DirichletCharacter, "value_on_ideal", boom)
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
        assert len(characters.enumerate_xi(LevelIdeal.from_integer(25))) == 4  # the two odd characters mod 5 too
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
        assert xi_matches_brute_force(12, xs)
        assert not xi_matches_brute_force(12, xs + xs[:1])
        assert not xi_matches_brute_force(12, xs[1:])


class TestSignSensitivity:
    """`characters.eta_tilde_multiplicative` reads each drawn sign
    `DirichletCharacter.sign_at` against `oracles.kronecker_symbol`; a sign
    that is wrong but still multiplicative is flagged too."""

    @pytest.mark.parametrize("wrong", ["plus_one", "negated"])
    def test_wrong_sign_fails_the_check(self, monkeypatch, wrong):
        honest = DirichletCharacter.sign_at
        patched = {
            "plus_one": lambda self, place: 1,
            "negated": lambda self, place: -honest(self, place),
        }[wrong]
        monkeypatch.setattr(DirichletCharacter, "sign_at", patched)
        by_name = {r.name: r for r in check_characters(None, census_limit=1, gauss_limit=1)}
        result = by_name["characters.eta_tilde_multiplicative"]
        assert not result.passed
        assert 0 < result.observed < math.inf


class TestEdgeSumSensitivity:
    """`rtf.edge_taylor_vs_numeric` compares the production sum over choice
    assignments (`assignment_sum`) with the enumeration of every assignment."""

    def test_forgotten_empty_assignment_term_is_flagged(self, monkeypatch):
        honest = rtf_constants.assignment_sum

        def without_empty_term(n, section, jet_at):
            t0, t1, t2 = honest(n, section, jet_at)
            return t0 - 1.0, t1, t2

        monkeypatch.setattr(rtf_constants, "assignment_sum", without_empty_term)
        results = check_rtf_constants(None)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["rtf.edge_taylor_vs_numeric"]
        assert 1e-3 < failed[0].observed < math.inf


class TestLevelConstantSensitivity:
    """`rtf.inclusion_exclusion_level_constant` reads the level constant off
    the Atkin-Lehner count of newforms, sum over M | N of beta(N/M) psi(M)
    over phi(N), so a wrong local factor at either exponent class fails it."""

    # The honest factors: 1 - 1/(q**2 - q) at exponent 2, 1 - 1/q**2 beyond.
    @pytest.mark.parametrize(
        "factor_2, factor_3",
        [(lambda q: 1.0 - 1.0 / (q * q - 1), lambda q: 1.0 - 1.0 / (q * q)),
         (lambda q: 1.0 - 1.0 / (q * q - q), lambda q: 1.0 - 1.0 / (q * q + q))],
        ids=["exponent-2", "exponent-3-and-up"],
    )
    def test_wrong_local_factor_fails_the_check(self, monkeypatch, factor_2, factor_3):
        def patched(n):
            return math.prod(factor_2(p.q) if e == 2 else factor_3(p.q) if e >= 3 else 1.0
                             for p, e in n.factors)

        monkeypatch.setattr(rtf_constants, "level_constant", patched)
        failed = [r for r in check_rtf_constants(None) if not r.passed]
        assert [r.name for r in failed] == ["rtf.inclusion_exclusion_level_constant"]
        assert 1e-3 < failed[0].observed < math.inf


class TestSecondMomentConstantSensitivity:
    """C_eta, which `constants` prints as `C_eta_big`, is the orbit constant
    at S = {}, so the two orbit-constant checks read the printed value's route."""

    def test_scaled_orbit_constant_fails_both_checks_and_moves_c_eta(self, monkeypatch, capsys):
        import json

        from rtflab.cli import main

        assert main(["constants", "--n", "2^2*3"]) == 0
        honest_c_eta = json.loads(capsys.readouterr().out)["C_eta_big"]
        honest = rtf_constants.unipotent_orbit_constant

        def scaled(*args, **kwargs):
            return 1.01 * honest(*args, **kwargs)

        monkeypatch.setattr(rtf_constants, "unipotent_orbit_constant", scaled)
        failed = [r.name for r in check_rtf_constants(None) if not r.passed]
        assert failed == ["rtf.orbit_constant_flat_nontrivial", "rtf.orbit_constant_log_growth"]
        assert main(["constants", "--n", "2^2*3"]) == 0
        c_eta = json.loads(capsys.readouterr().out)["C_eta_big"]
        assert c_eta == pytest.approx(1.01 * honest_c_eta, rel=1e-14)

    def test_wrong_euler_constant_fails_the_log_growth_check(self, monkeypatch, capsys):
        # The archimedean term (d/2)(gamma + 2 log 2 - log pi) of C_eta cancels
        # in the growth differences; the check also compares it at a = (1)
        # with -(1/2)(psi(1/2) + log pi), which reads no Euler constant.
        import json

        from rtflab.cli import main

        assert main(["constants", "--n", "2^2*3"]) == 0
        honest_c_eta = json.loads(capsys.readouterr().out)["C_eta_big"]
        monkeypatch.setattr(rtf_constants, "EULER_GAMMA", 0.6)
        by_name = {r.name: r for r in check_rtf_constants(None)}
        assert [name for name, r in by_name.items() if not r.passed] == ["rtf.orbit_constant_log_growth"]
        assert by_name["rtf.orbit_constant_log_growth"].observed == pytest.approx(
            0.5 * (0.6 - EULER_GAMMA), rel=1e-9
        )
        assert main(["constants", "--n", "2^2*3"]) == 0
        assert json.loads(capsys.readouterr().out)["C_eta_big"] != honest_c_eta
