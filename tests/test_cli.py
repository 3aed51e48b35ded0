import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rtflab import chunked, cli
from rtflab.cli import main
from rtflab.errors import PoleError
from rtflab.empirical import inverse_cdf_sample, sample_from_rows, write_sample_csv
from rtflab.fields import RATIONALS
from rtflab.measures import Density, local_spectral, plancherel, sato_tate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMass:
    def test_semicircle(self, capsys):
        code, out, _ = run(capsys, "mass", "--measure", "mu_ST", "--tol", "1e-10")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - 1.0) <= 1e-10
        assert doc["subdivisions"] >= 0

    def test_plancherel(self, capsys):
        code, out, _ = run(capsys, "mass", "--measure", "mu_p", "--p", "3", "--sign", "-1")
        assert code == 0
        assert abs(json.loads(out)["value"] - 1.0) <= 1e-8

    def test_lambda_full_window(self, capsys):
        code, out, _ = run(capsys, "mass", "--measure", "lambda", "--p", "2", "--window", "full")
        assert code == 0
        assert abs(json.loads(out)["value"] - 1.0) <= 1e-8

    # (value, error, subdivisions) of `mass --measure lambda` at the default
    # tolerance, recorded from the output of the release before the window
    # came from `Density.hi`; the stdout must not move by a byte.
    LAMBDA_MASSES = {
        (2, 1, "full"): (1.0000000000000002, 1.1883210621803667e-12, 4),
        (2, 1, "half"): (0.9376871086863936, 3.9371589511093745e-13, 3),
        (2, -1, "full"): (1.0000000000000002, 9.833008085766255e-11, 6),
        (2, -1, "half"): (0.5000000000000001, 9.826762959670754e-11, 2),
        (3, 1, "full"): (1.0, 9.701961168993019e-12, 3),
        (3, 1, "half"): (0.8910022189557706, 6.7713379944570205e-12, 2),
        (3, -1, "full"): (1.0, 4.152942570843878e-14, 5),
        (3, -1, "half"): (0.49999999999999994, 2.0762847853335466e-14, 2),
    }

    @pytest.mark.parametrize("p,sign,window", list(LAMBDA_MASSES))
    def test_lambda_mass_bytes(self, capsys, p, sign, window):
        value, error, subdivisions = self.LAMBDA_MASSES[p, sign, window]
        tag = f"lambda_{p}^{'+' if sign == 1 else '-'}"
        expected = (
            f'{{\n  "error": {error!r},\n  "measure": "{tag}",\n'
            f'  "subdivisions": {subdivisions},\n  "value": {value!r}\n}}\n'
        )
        argv = ["mass", "--measure", "lambda", "--p", str(p), "--sign", str(sign), "--window", window]
        assert run(capsys, *argv) == (0, expected, "")


class TestDensityFlags:
    """`measure`, `mass` and `compare` read --p, --sign and --window through
    one parser; a flag the chosen measure does not read exits 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["measure", "--grid", "3", "--p", "2"], "mu_ST reads neither --p nor --sign"),
            (["measure", "--grid", "1", "--sign", "-1"], "mu_ST reads neither --p nor --sign"),
            (["measure", "--grid", "1", "--sign", "1"], "mu_ST reads neither --p nor --sign"),
            (["mass", "--measure", "mu_ST", "--p", "3"], "mu_ST reads neither --p nor --sign"),
            (["compare", "--sample", "absent.csv", "--sign", "-1"], "mu_ST reads neither --p nor --sign"),
            (["mass", "--sign", "-1", "--window", "half"], "--window is read by --measure lambda only"),
            (["mass", "--window", "full"], "--window is read by --measure lambda only"),
            (["mass", "--measure", "mu_p", "--p", "3", "--window", "half"],
             "--window is read by --measure lambda only"),
        ],
        ids=["measure-mu_ST-p", "measure-mu_ST-sign", "measure-mu_ST-plus-sign", "mass-mu_ST-p",
             "compare-mu_ST-sign", "mass-mu_ST-window", "mass-mu_ST-full-window", "mass-mu_p-window"],
    )
    def test_unread_density_flag_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize("command", ["measure", "mass", "compare"])
    @pytest.mark.parametrize("measure", ["mu_p", "lambda"])
    def test_p_must_be_prime(self, capsys, command, measure):
        extra = ["--sample", "absent.csv"] if command == "compare" else []
        code, out, err = run(capsys, command, "--measure", measure, "--p", "6", *extra)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "message": "6 is not prime"}

    def test_defaults_read_as_plus_and_full(self, capsys):
        # no --sign is +1 and no --window the full window, byte for byte
        assert run(capsys, "mass", "--measure", "lambda", "--p", "3") == run(
            capsys, "mass", "--measure", "lambda", "--p", "3", "--sign", "1", "--window", "full"
        )
        assert run(capsys, "measure", "--measure", "mu_p", "--p", "5", "--grid", "4") == run(
            capsys, "measure", "--measure", "mu_p", "--p", "5", "--sign", "1", "--grid", "4"
        )


class TestWeights:
    def test_parity_vanishing(self, capsys):
        code, out, _ = run(capsys, "weights", "--rep", "c2", "--sign", "-1", "--k", "3")
        assert code == 0
        assert json.loads(out)["weight"] == 0.0

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "weights", "--rep", "special", "--q", "3", "--sign", "1", "--k", "1",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "variant,q,sign,k,weight"
        assert row.split(",")[-1] == repr(1.5)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--satake", "0"],
            ["--satake", "5", "--q", "2", "--k", "3"],
            ["--satake", "5", "--q", "2", "--k", "0"],
            ["--satake", "1e-320"],
        ],
        ids=["zero", "outside-q2", "outside-q2-k0", "subnormal"],
    )
    def test_inadmissible_satake_exits_2(self, capsys, extra):
        code, out, err = run(capsys, "weights", "--rep", "spherical", "--sign", "1", "--k", "1", *extra)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "usage"
        assert "not in the admissible set at q = 2" in doc["message"]

    def test_complementary_satake_inside_the_set_exits_0(self, capsys):
        # 2**0.2 = q**(sigma/2) with sigma = 0.4 at q = 2
        code, out, _ = run(capsys, "weights", "--rep", "spherical", "--sign", "1", "--k", "3",
                           "--satake", "1.148698354997035")
        assert code == 0
        assert json.loads(out)["weight"] >= 0.0


class TestConstants:
    def test_unit_level_trivial(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "1", "--eta", "trivial")
        assert code == 0
        doc = json.loads(out)
        assert doc["C_level"] == 1.0
        assert abs(doc["Y"]["2"] - 24.0 / math.pi) <= 1e-8

    def test_quadratic_character(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "2^2", "--eta", "quad:5")
        assert code == 0
        doc = json.loads(out)
        assert doc["C_level"] == 0.5
        assert abs(doc["Y"]["2"]) <= 1e-10

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "constants", "--n", "2^2*3", "--eta", "quad:5")
        _, out2, _ = run(capsys, "constants", "--n", "2^2*3", "--eta", "quad:5")
        assert out1 == out2

    def test_level_beyond_enumeration_reach(self, capsys):
        # 7**7 = 823 543 choice assignments, summed as a product over places.
        n = "2^6*3^6*5^6*7^6*11^6*13^6*17^6"
        code, out, _ = run(capsys, "constants", "--n", n, "--eta", "trivial")
        assert code == 0
        ys = json.loads(out)["Y"]
        assert sorted(ys) == ["-1", "0", "1", "2"]
        assert all(math.isfinite(y) for y in ys.values())

    def test_pole_exits_3(self, capsys):
        code, _, err = run(capsys, "constants", "--n", "1", "--s-values", "-1")
        assert code == 3
        assert json.loads(err)["error"] == "numerical"

    @pytest.mark.parametrize(
        "argv, place",
        [
            (["--n", "2", "--s-primes", "2"], "p2"),
            (["--n", "3*5^2", "--s-primes", "7,5"], "p5"),
            (["--n", "4", "--eta", "quad:5", "--s-primes", "5"], "p5"),
        ],
        ids=["level", "level-second-prime", "eta-conductor"],
    )
    def test_s_meeting_level_or_conductor_exits_3(self, capsys, argv, place):
        code, out, err = run(capsys, "constants", *argv)
        assert code == 3
        assert out == ""
        doc = json.loads(err)
        assert doc["type"] == "RamifiedOverlapError"
        assert place in doc["message"]

    @pytest.mark.parametrize(
        "argv, place",
        [(["--s-values", "3000", "--s-primes", "3"], "p3")],
        ids=["finite-power-overflow"],
    )
    def test_overflow_exits_3(self, capsys, argv, place):
        code, out, err = run(capsys, "constants", "--n", "2", *argv)
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert (doc["error"], doc["type"]) == ("numerical", "DomainError")
        assert f"orbit factor at {place} is not finite" in doc["message"]

    @pytest.mark.parametrize("eta", ["quad:5", "quad:13"])
    def test_constants_compute_no_gauss_sum(self, capsys, monkeypatch, eta):
        # Every eta that `constants` accepts has root number 1, stated once in
        # `lfunctions`; no Gauss sum is recomputed on the way.
        from rtflab import characters

        argv = ("constants", "--n", "2^2*3", "--eta", eta)
        code, want, _ = run(capsys, *argv)
        assert code == 0

        def refuse(*args):
            raise AssertionError("a Gauss sum ran on the constants path")

        monkeypatch.setattr(characters, "gauss_sum", refuse)
        monkeypatch.setattr(characters, "gauss_sums_for_modulus", refuse)
        assert run(capsys, *argv)[:2] == (0, want)

    def test_left_half_plane_orbit_factor_matches_mpmath(self, capsys):
        # Gamma((s+1)/4) overflows floats here, the reflected factor does not;
        # the digamma reflection needs its argument reduced mod 1 first.
        import mpmath

        code, out, _ = run(capsys, "constants", "--n", "2", "--s-values=-3000")
        assert code == 0
        doc = json.loads(out)
        with mpmath.workdps(40):
            a, b = mpmath.mpf(-2999) / 4, mpmath.mpf(-2997) / 4
            upsilon = -(mpmath.gamma(a) / mpmath.gamma(b)) ** 2 / 8
            digammas = (mpmath.digamma(a) + mpmath.digamma(b)) / 2
        assert doc["upsilon_samples"][0] == [pytest.approx(float(upsilon), rel=4e-16), 0.0]
        # trivial eta (residue 1): C_term - C_eta_big is the digamma term alone
        c_term = doc["C_term_samples"][0][0]
        assert c_term == pytest.approx(doc["C_eta_big"] + float(digammas), rel=1e-14)

    def test_large_s_orbit_factor_decays(self, capsys):
        # -(1/8) Gamma((s+1)/4)^2 / Gamma((s+3)/4)^2 -> -1/(2 s); the Lanczos
        # difference printed -0.125 at s = 1e20 and exited 3 at 1e308.
        code, out, _ = run(capsys, "constants", "--n", "2", "--s-values", "1e20,1e308")
        assert code == 0
        assert json.loads(out)["upsilon_samples"] == [[-5e-21, 0.0], [-5e-309, 0.0]]

    def test_s_disjoint_from_level_is_accepted(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "2", "--eta", "quad:5", "--s-primes", "3,7")
        assert code == 0
        assert len(json.loads(out)["upsilon_samples"]) == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("x", "--s-primes takes integers, not 'x'"),
            ("3,,7", "--s-primes takes integers, not ''"),
            ("3,2.5", "--s-primes takes integers, not '2.5'"),
            ("3,3", "--s-primes lists 3 twice"),
            ("3,7,3", "--s-primes lists 3 twice"),
        ],
    )
    def test_bad_s_primes_are_named(self, capsys, spec, message):
        code, out, err = run(capsys, "constants", "--n", "2", "--s-primes", spec)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize(
        "level, token",
        [("2^3^4", "2^3^4"), ("2^", "2^"), ("v2", "v2"), ("2*", ""), ("2^1.5", "2^1.5")],
    )
    def test_bad_level_token_is_named(self, capsys, level, token):
        code, out, err = run(capsys, "constants", "--n", level)
        assert (code, out) == (2, "")
        message = f"cannot parse level token {token!r} (use p^e*q, e.g. 2^3*5)"
        assert json.loads(err) == {"error": "usage", "message": message}


class TestCharacters:
    def test_census_csv(self, capsys):
        code, out, _ = run(capsys, "characters", "--n", "25")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "modulus,conductor,parity,order"
        assert lines[1:] == ["1,1,even,1", "5,5,even,2"]

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "characters", "--n", "2^4*3^2")
        _, out2, _ = run(capsys, "characters", "--n", "2^4*3^2")
        assert out1 == out2


class TestMeasureTabulation:
    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "measure", "--measure", "mu_p", "--p", "2", "--grid", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x_or_y,density,measure_tag,place_q,sign"
        assert len(lines) == 10
        x, d, tag, q, sign = lines[1].split(",")
        assert tag == "mu_2^+"
        assert int(q) == 2

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "measure", "--measure", "mu_ST", "--grid", "16")
        _, out2, _ = run(capsys, "measure", "--measure", "mu_ST", "--grid", "16")
        assert out1 == out2


class TestCompare:
    def test_synthetic_sample(self, capsys, tmp_path):
        draws = inverse_cdf_sample(plancherel(2, 1), 20_000, seed=99)
        sample, _ = sample_from_rows([(1, 2, float(x), 1.0) for x in draws])
        path = tmp_path / "sample.csv"
        path.write_text(write_sample_csv(sample), encoding="utf-8")
        code, out, _ = run(
            capsys, "compare", "--sample", str(path), "--measure", "mu_p", "--p", "2",
            "--sign", "1", "--intervals=-1:0,0:1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ks_distance"] < 0.02
        assert len(doc["intervals"]) == 2

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(capsys, "compare", "--sample", "/nonexistent.csv", "--measure", "mu_ST")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("token", ["0:1:2", "a:1", "1", ""])
    def test_bad_interval_token_is_named(self, capsys, tmp_path, token):
        path = tmp_path / "sample.csv"
        path.write_text("level_norm,place_q,x,weight\n1,2,0.5,1.0\n", encoding="utf-8")
        code, out, err = run(
            capsys, "compare", "--sample", str(path), "--measure", "mu_p", "--p", "2",
            f"--intervals=-1:0,{token}",
        )
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "usage"
        assert repr(token) in doc["message"]

    def test_bad_intervals_reported_before_the_sample_is_opened(self, capsys):
        code, out, err = run(
            capsys, "compare", "--sample", "/nonexistent.csv", "--measure", "mu_ST",
            "--intervals=0:1:2",
        )
        assert (code, out) == (2, "")
        assert "'0:1:2'" in json.loads(err)["message"]


class TestLevelExponents:
    """Every ``p^e`` token of a level has e >= 1, checked token by token, so
    that no token cancels another."""

    @pytest.mark.parametrize("command", ["constants", "characters"])
    @pytest.mark.parametrize(
        "level, token, e",
        [("2^1*2^-1", "2^-1", -1), ("2^2*2^-1", "2^-1", -1), ("2^-1", "2^-1", -1),
         ("2^0", "2^0", 0), ("3*2^0", "2^0", 0)],
    )
    def test_exponent_below_one_is_named(self, capsys, command, level, token, e):
        code, out, err = run(capsys, command, "--n", level)
        assert (code, out) == (2, "")
        message = f"level token {token!r} has exponent {e}; exponents must be at least 1"
        assert json.loads(err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize("command", ["constants", "characters"])
    def test_repeated_prime_adds_its_exponents(self, capsys, command):
        assert run(capsys, command, "--n", "2*2^2*3") == run(capsys, command, "--n", "2^3*3")


class TestProfileAndUsage:
    def test_profile_off_q_stops_the_analytic_context(self, capsys, tmp_path):
        # --n 1 needs no place, so the profile passes the level parser and
        # is refused where the constants are computed.
        path = tmp_path / "profile.json"
        path.write_text('{"degree": 2, "discriminant": 5, "places": '
                        '[{"label": "v2", "q": 4}, {"label": "v5", "q": 5, "d": 1}]}', encoding="utf-8")
        code, out, err = run(capsys, "constants", "--n", "1", "--profile", str(path))
        assert (code, out) == (2, "")
        message = "the analytic context is implemented over Q only"
        assert json.loads(err) == {"error": "usage", "message": message}

    def test_corrupt_profile_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "profile.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "constants", "--n", "1", "--profile", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("command", ["constants", "characters"])
    def test_degree_one_profile_is_q(self, capsys, tmp_path, command):
        argv = [command, "--n", "2^2*3"] + (["--eta", "quad:5"] if command == "constants" else [])
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        for doc in ('{"degree": 1, "discriminant": 1}',
                    '{"degree": 1, "discriminant": 1, "places": [], "rationals": true}'):
            path = tmp_path / "profile.json"
            path.write_text(doc, encoding="utf-8")
            assert run(capsys, *argv, "--profile", str(path)) == (0, plain, "")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"degree": 2, "discriminant": 5, "rationals": true}',
             "place_for_prime is only available on the rational profile"),
            ('{"degree": 1, "discriminant": 7, "rationals": true}',
             "a degree-1 profile is Q: discriminant 1 and no places"),
            ('{"degree": 1, "discriminant": 1, "places": [{"label": "p2", "q": 2}]}',
             "a degree-1 profile is Q: discriminant 1 and no places"),
        ],
        ids=["degree-2-rationals", "degree-1-discriminant-7", "degree-1-places"],
    )
    def test_profile_that_is_not_q_is_not_read_as_q(self, capsys, tmp_path, doc, message):
        path = tmp_path / "profile.json"
        path.write_text(doc, encoding="utf-8")
        code, out, err = run(capsys, "constants", "--n", "4", "--profile", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize("command", ["constants", "characters"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[]", "a field profile must be a JSON object"),
            ('{"degree": 2, "discriminant": 5, "places": 7}', "profile 'places' must be a list"),
            ('{"degree": 2, "discriminant": 5, "places": [3]}',
             "each profile place must be an object with 'label' and 'q'"),
            ('{"degree": 2, "discriminant": 5, "places": [{"label": "v2"}]}',
             "each profile place must be an object with 'label' and 'q'"),
            ('{"degree": 1.5, "discriminant": 1}', "profile 'degree' must be an integer, not 1.5"),
            ('{"degree": 2, "discriminant": "5"}',
             "profile 'discriminant' must be an integer, not '5'"),
            ('{"degree": 2, "discriminant": 5, "places": [{"label": "v2", "q": 4, "d": true}]}',
             "profile 'd' must be an integer, not True"),
        ],
        ids=["not-an-object", "places-not-a-list", "place-not-an-object", "place-without-q",
             "float-degree", "string-discriminant", "bool-different-exponent"],
    )
    def test_malformed_profile_is_a_usage_error(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "profile.json"
        path.write_text(doc, encoding="utf-8")
        code, out, err = run(capsys, command, "--n", "4", "--profile", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize("command", ["constants", "characters"])
    @pytest.mark.parametrize("degree, discriminant", [(2, 1), (3, 20)])
    def test_profile_below_minkowski_bound_exits_2(self, capsys, tmp_path, command, degree,
                                                   discriminant):
        path = tmp_path / "profile.json"
        path.write_text(f'{{"degree": {degree}, "discriminant": {discriminant}}}', encoding="utf-8")
        code, out, err = run(capsys, command, "--n", "4", "--profile", str(path))
        assert (code, out) == (2, "")
        message = json.loads(err)["message"]
        assert message.startswith(f"no totally real field of degree {degree} has discriminant")
        assert "Minkowski's bound is |D| >= (n**n / n!)**2" in message

    def test_huge_degree_is_rejected_before_its_places_are_built(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"degree": 1000000000, "discriminant": 5}', encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "constants", "--n", "4", "--profile", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "Minkowski's bound" in json.loads(err)["message"]

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "mass.json"
        code, out, _ = run(capsys, "mass", "--measure", "mu_ST", "--out", str(target))
        assert code == 0
        assert out == ""
        assert abs(json.loads(target.read_text())["value"] - 1.0) <= 1e-9


class TestNonFiniteNumbers:
    """nan and infinities are usage errors that name the flag, never a run."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["mass", "check"])
    def test_tol(self, capsys, command, value):
        code, out, err = run(capsys, command, f"--tol={value}")
        assert (code, out) == (2, "")
        assert f"argument --tol: must be finite, not '{value}'" in err

    @pytest.mark.parametrize("values", ["1,nan", "inf", "2,-inf,3", "1,x"])
    def test_s_values(self, capsys, values):
        code, out, err = run(capsys, "constants", "--n", "4", f"--s-values={values}")
        assert (code, out) == (2, "")
        bad = values.split(",")[1 if values.startswith(("1,", "2,")) else 0]
        assert json.loads(err) == {
            "error": "usage", "message": f"--s-values takes finite numbers, not {bad!r}",
        }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_theta(self, capsys, value):
        argv = ["weights", "--rep", "spherical", "--sign", "1", "--k", "1", f"--theta={value}"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument --theta: must be finite, not '{value}'" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "1+nanj", "-infj"])
    def test_satake(self, capsys, value):
        argv = ["weights", "--rep", "spherical", "--sign", "1", "--k", "1", f"--satake={value}"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument --satake: must be finite, not '{value}'" in err
        code, out, _ = run(capsys, *argv[:-1], "--satake", "1j")
        assert code == 0
        assert math.isfinite(json.loads(out)["weight"])

    def test_eta_spec_that_is_not_a_modulus(self, capsys):
        code, out, err = run(capsys, "constants", "--n", "4", "--eta", "quad:x")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "usage",
            "message": "cannot parse character spec 'quad:x' (use 'trivial' or 'quad:m')",
        }


# One run of each subcommand, and the value given to each common flag; the
# sample and profile files are written by the tests that need them.
BASE_ARGV = {
    "measure": ["measure", "--grid", "2"],
    "mass": ["mass", "--measure", "mu_ST"],
    "weights": ["weights", "--rep", "c2", "--sign", "-1", "--k", "3"],
    "constants": ["constants", "--n", "2"],
    "characters": ["characters", "--n", "25"],
    "check": ["check"],
    "compare": ["compare", "--measure", "mu_ST", "--sample", "sample.csv"],
}
FLAG_VALUES = {"--profile": "profile.json", "--tol": "1e-8", "--format": "csv", "--out": "out.txt"}
READ_FLAGS = {
    "measure": ("--out",),
    "mass": ("--out", "--tol"),
    "weights": ("--out", "--format"),
    "constants": ("--out", "--profile"),
    "characters": ("--out", "--profile"),
    "check": ("--out", "--tol"),
    "compare": ("--out",),
}


# The rep flags of `weights`, the value given to each, and the reps that read them.
WEIGHTS_FLAG_VALUES = {"--theta": "0.3", "--satake": "1j", "--chi-sign": "-1", "--c": "3"}
WEIGHTS_READ_FLAGS = {"spherical": ("--theta", "--satake"), "special": ("--chi-sign",), "c2": ("--c",)}


class TestFlagsPerSubcommand:
    """Each subcommand accepts exactly the common flags it reads, and each
    `weights --rep` exactly its own rep flags."""

    @pytest.mark.parametrize(
        "rep,flag",
        [(r, f) for r in WEIGHTS_READ_FLAGS for f in WEIGHTS_FLAG_VALUES if f not in WEIGHTS_READ_FLAGS[r]],
    )
    def test_unread_weights_rep_flag_exits_2(self, capsys, rep, flag):
        argv = ["weights", "--rep", rep, "--sign", "1", "--k", "1", flag, WEIGHTS_FLAG_VALUES[flag]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "message": f"--rep {rep} does not read {flag}"}

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--rep", "spherical", "--theta", "0.3", "--satake", "1j"],
             "give the Satake parameter by --theta or by --satake, not both"),
            (["--rep", "c2", "--c", "1"], "higher-conductor shape requires c >= 2"),
        ],
        ids=["theta-with-satake", "c2-c-1"],
    )
    def test_weights_flag_conflicts_exit_2(self, capsys, extra, message):
        code, out, err = run(capsys, "weights", "--sign", "1", "--k", "1", *extra)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c in BASE_ARGV for f in FLAG_VALUES if f not in READ_FLAGS[c]],
    )
    def test_unread_flag_is_a_usage_error(self, capsys, command, flag):
        code, out, err = run(capsys, *BASE_ARGV[command], flag, FLAG_VALUES[flag])
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command,flag", [(c, f) for c in BASE_ARGV for f in READ_FLAGS[c]])
    def test_read_flag_works(self, capsys, monkeypatch, tmp_path, command, flag):
        from rtflab import checks

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(checks, "run_all_checks", lambda tol: [])
        Path("profile.json").write_text('{"degree": 1, "discriminant": 1}', encoding="utf-8")
        sample, _ = sample_from_rows([(1, 2, x, 1.0) for x in (-1.0, 0.0, 0.5)])
        Path("sample.csv").write_text(write_sample_csv(sample), encoding="utf-8")
        code, plain, _ = run(capsys, *BASE_ARGV[command])
        assert code == 0
        code, out, _ = run(capsys, *BASE_ARGV[command], flag, FLAG_VALUES[flag])
        assert code == 0
        if flag == "--out":
            assert out == ""
            assert Path("out.txt").read_text(encoding="utf-8") == plain
        elif flag == "--profile":
            assert out == plain
        elif flag == "--format":
            assert out.startswith("variant,q,sign,k,weight\n")
        elif command == "check":
            assert json.loads(out)["tolerance_override"] == 1e-8
        else:
            assert abs(json.loads(out)["value"] - 1.0) <= 1e-8


class TestCheckCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["failures"] == []
        assert len(doc["checks"]) >= 30

    def test_impossible_tolerance_fails_with_names(self, capsys):
        code, out, _ = run(capsys, "check", "--tol", "1e-15")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert len(doc["failures"]) >= 1
        for name in doc["failures"]:
            entry = next(c for c in doc["checks"] if c["name"] == name)
            assert entry["observed"] > entry["tolerance"]


class TestCompareGrouping:
    def test_mixed_place_q_rejected(self, capsys, tmp_path):
        sample, _ = sample_from_rows([(1, 2, 0.5, 1.0), (1, 3, 0.5, 1.0)])
        path = tmp_path / "mixed.csv"
        path.write_text(write_sample_csv(sample), encoding="utf-8")
        code, _, err = run(
            capsys, "compare", "--sample", str(path), "--measure", "mu_p", "--p", "2"
        )
        assert code == 2
        assert "mixes place_q values [2, 3]" in json.loads(err)["message"]

    def test_wrong_group_rejected(self, capsys, tmp_path):
        sample, _ = sample_from_rows([(1, 3, 0.5, 1.0)])
        path = tmp_path / "grouped.csv"
        path.write_text(write_sample_csv(sample), encoding="utf-8")
        code, _, err = run(
            capsys, "compare", "--sample", str(path), "--measure", "mu_p", "--p", "2"
        )
        assert code == 2


class TestCompareLambda:
    def test_lambda_window_sample_via_cli(self, capsys, tmp_path):
        from rtflab.fields import RATIONALS
        from rtflab.measures import local_spectral

        density = local_spectral(RATIONALS.place_for_prime(2), 1)
        draws = inverse_cdf_sample(density, 20_000, seed=31)
        sample, _ = sample_from_rows(
            [(1, 2, float(y), 1.0) for y in draws], density.lo, density.hi
        )
        path = tmp_path / "spectral.csv"
        path.write_text(write_sample_csv(sample), encoding="utf-8")
        code, out, _ = run(
            capsys, "compare", "--sample", str(path), "--measure", "lambda", "--p", "2"
        )
        assert code == 0
        assert json.loads(out)["ks_distance"] < 0.02


class TestMeasureLambdaTabulation:
    def test_lambda_csv(self, capsys):
        code, out, _ = run(capsys, "measure", "--measure", "lambda", "--p", "3", "--grid", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert lines[1].split(",")[1] == repr(0.0)  # density vanishes at y = 0


def per_point_grid(measure, p, sign, n):
    """The CSV of `rtflab measure`, one point at a time through the checked
    call of the public densities, as the per-point loop wrote it."""
    if measure == "mu_ST":
        density = sato_tate()
    elif measure == "mu_p":
        density = plancherel(p, sign)
    else:
        density = local_spectral(RATIONALS.place_for_prime(p), sign)
    lo, hi, tag = density.lo, density.hi, density.tag
    lines = ["x_or_y,density,measure_tag,place_q,sign"]
    for i in range(n + 1):
        x = lo + (hi - lo) * i / n
        lines.append(f"{x!r},{density(x)!r},{tag},{p or 0},{sign:+d}")
    return "\n".join(lines) + "\n"


class TestMeasureGridByteIdentity:
    @pytest.mark.parametrize(
        "measure,p,sign",
        [("mu_ST", None, 1), ("mu_p", 2, 1), ("mu_p", 7, -1), ("lambda", 3, 1), ("lambda", 5, -1)],
    )
    def test_grid_equals_per_point_loop(self, capsys, measure, p, sign):
        argv = ["measure", "--measure", measure, "--grid", "64"]
        if p is not None:
            argv += ["--p", str(p), "--sign", str(sign)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == per_point_grid(measure, p, sign, 64)

    def test_ymax_is_not_a_flag(self, capsys):
        # every density `measure` tabulates has a finite domain
        code, out, err = run(capsys, "measure", "--measure", "mu_ST", "--ymax", "5")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --ymax 5" in err

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_is_a_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "measure", "--measure", "mu_ST", "--grid", grid)
        assert code == 2
        assert out == ""
        assert "--grid" in json.loads(err)["message"]


def chunks_forced(monkeypatch, chunks):
    monkeypatch.setattr(chunked, "chunk_count", lambda items, per_chunk: chunks)


@pytest.fixture
def forked(monkeypatch):
    """The pids this process forks while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


class TestMeasureChunkedRows:
    """`measure` renders its rows in contiguous chunks, every chunk past the
    first in a forked child; the bytes must not depend on the chunk count."""

    @pytest.mark.parametrize("measure,p,sign", [("mu_ST", None, 1), ("mu_p", 2, 1), ("lambda", 5, -1)])
    @pytest.mark.parametrize("grid", [1, 7, 8191, 8192, 150_000])
    def test_bytes_independent_of_chunk_count(self, capsys, monkeypatch, tmp_path, measure, p, sign, grid):
        argv = ["measure", "--measure", measure, "--grid", str(grid)]
        if p is not None:
            argv += ["--p", str(p), "--sign", str(sign)]
        expected = per_point_grid(measure, p, sign, grid)
        for chunks in (1, 2, 3):
            chunks_forced(monkeypatch, chunks)
            assert run(capsys, *argv) == (0, expected, "")
        path = tmp_path / "grid.csv"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        written = path.read_bytes()
        assert written == expected.encode("utf-8")
        assert written.count(b"x_or_y") == 1

    def test_chunk_count(self):
        cpus = len(os.sched_getaffinity(0))
        rows = cli.GRID_ROWS_PER_CHUNK
        assert chunked.chunk_count(201, rows) == 1  # the default --grid 200 never forks
        assert chunked.chunk_count(8191, rows) == 1
        assert chunked.chunk_count(8192, rows) == min(cpus, 2)
        assert chunked.chunk_count(150_001, rows) == min(cpus, 36)

    GRID = 8191  # 8192 rows; three chunks start at rows 0, 2730 and 5461

    def poled_density(self, monkeypatch, first_bad, fail):
        """mu_ST replaced by a density that calls `fail(x)` from row `first_bad` on."""
        threshold = -2.0 + 4.0 * first_bad / self.GRID  # the abscissa of that row

        def fn(x):
            if x >= threshold:
                fail(x)
            return 1.0

        monkeypatch.setattr(cli, "_density_from_args", lambda args: Density(-2.0, 2.0, fn, "poled"))

    @pytest.mark.parametrize("first_bad", [8000, 3000, 100], ids=["last", "middle+last", "all"])
    def test_pole_exits_3_like_the_serial_run(self, capsys, monkeypatch, forked, first_bad):
        def fail(x):
            raise PoleError(f"pole at {x!r}")

        self.poled_density(monkeypatch, first_bad, fail)
        argv = ["measure", "--grid", str(self.GRID)]
        chunks_forced(monkeypatch, 1)
        serial = run(capsys, *argv)
        chunks_forced(monkeypatch, 3)
        assert run(capsys, *argv) == serial
        code, out, err = serial
        assert (code, out) == (3, "")
        x = -2.0 + 4.0 * first_bad / self.GRID
        assert json.loads(err) == {"error": "numerical", "type": "PoleError", "message": f"pole at {x!r}"}
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):  # already reaped
                os.waitpid(pid, os.WNOHANG)

    def test_child_that_dies_is_reported(self, capsys, monkeypatch, forked):
        self.poled_density(monkeypatch, 8000, lambda x: os._exit(7))
        chunks_forced(monkeypatch, 2)
        code, out, err = run(capsys, "measure", "--grid", str(self.GRID))
        assert (code, out) == (2, "")
        assert "exited with status 7" in json.loads(err)["message"]
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)


class TestCheckChunkedGroups:
    """`check` runs its groups in contiguous chunks, every chunk past the
    first in a forked child; results and bytes must not depend on the count."""

    def test_results_and_bytes_independent_of_chunk_count(self, capsys, monkeypatch):
        from rtflab.checks import run_all_checks

        chunks_forced(monkeypatch, 1)
        expected = [r.as_dict() for r in run_all_checks()]
        assert len(expected) == 33
        expected_out = run(capsys, "check")
        tight_out = run(capsys, "check", "--tol", "1e-20")
        assert (expected_out[0], tight_out[0]) == (0, 1)
        for chunks in (2, 3, 6):
            chunks_forced(monkeypatch, chunks)
            assert [r.as_dict() for r in run_all_checks()] == expected
            assert run(capsys, "check") == expected_out
        assert run(capsys, "check", "--tol", "1e-20") == tight_out

    def test_group_worker_that_dies_is_reported(self, capsys, monkeypatch, forked):
        from rtflab import checks

        # check_gamma is the fifth of six groups: with two chunks, the child's.
        monkeypatch.setattr(checks, "check_gamma", lambda tol: os._exit(7))
        chunks_forced(monkeypatch, 2)
        code, out, err = run(capsys, "check")
        assert (code, out) == (2, "")
        assert len(forked) == 1
        assert json.loads(err) == {
            "error": "usage",
            "message": f"chunk worker {forked[0]} exited with status 7",
        }
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(forked[0], os.WNOHANG)


class TestCompareMalformedRows:
    HEADER = "level_norm,place_q,x,weight\n"

    @pytest.mark.parametrize(
        "row",
        ["1.0,2,0.5,1.0", "1,1e3,0.5,1.0", "1,2,0.5", "1,2,0.5,1.0,9", "1,2,0.5,1.0 # c"],
    )
    def test_malformed_row_exits_2(self, capsys, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "1,2,0.25,1.0\n" + row + "\n", encoding="utf-8")
        code, out, err = run(capsys, "compare", "--sample", str(path), "--measure", "mu_p", "--p", "2")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "usage"

    def test_non_finite_rows_are_counted(self, capsys, tmp_path):
        path = tmp_path / "nonfinite.csv"
        path.write_text(
            self.HEADER + "1,2,0.25,1.0\n1,2,-0.5,2.0\n1,2,nan,1.0\n1,2,0.5,inf\n1,2,-inf,1.0\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "compare", "--sample", str(path), "--measure", "mu_p", "--p", "2")
        assert code == 0
        doc = json.loads(out)
        assert (doc["rows"], doc["rejected_rows"], doc["total_weight"]) == (2, 3, 3.0)


class TestCompareFileIngest:
    """`compare` streams the file through open(newline=None); line endings,
    a missing final newline and undecodable bytes behave as they did when
    the file was read whole (a missing file: TestCompare)."""

    ROWS = ("level_norm,place_q,x,weight", "11,2,0.5,1.0", "13,2,-1.25,0.5", "17,2,1.75,2.0")

    def compare(self, capsys, path):
        return run(capsys, "compare", "--sample", str(path), "--measure", "mu_p", "--p", "2")

    @pytest.mark.parametrize(
        "data",
        [
            "\r\n".join(ROWS) + "\r\n",
            "\r".join(ROWS) + "\r",
            "\n".join(ROWS),
            "\r\n".join(ROWS),
        ],
        ids=["crlf", "cr-only", "no-final-newline", "crlf-no-final-newline"],
    )
    def test_line_endings_match_lf(self, capsys, tmp_path, data):
        lf = tmp_path / "lf.csv"
        lf.write_bytes(("\n".join(self.ROWS) + "\n").encode())
        code, want, _ = self.compare(capsys, lf)
        assert code == 0 and json.loads(want)["rows"] == 3
        path = tmp_path / "sample.csv"
        path.write_bytes(data.encode())
        assert self.compare(capsys, path) == (0, want, "")

    @pytest.mark.parametrize(
        "data",
        [
            b"level_norm,place_q,x,weight\n",
            b"level_norm,place_q,x,weight\n11,2,0.5,1.0\n1\xff,2,0.5,1.0\n",
            b"level_norm,place_q,x,weight\n" + b"11,2,0.5,1.0\n" * 20_000 + b"\xfe,2,0.5,1.0\n",
            b"level_\xffnorm,place_q,x,weight\n11,2,0.5,1.0\n",
        ],
        ids=["header-only", "invalid-utf8", "invalid-utf8-past-first-block", "invalid-utf8-header"],
    )
    def test_unusable_file_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "sample.csv"
        path.write_bytes(data)
        code, out, err = self.compare(capsys, path)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "usage"


class TestMeasureAbscissae:
    """The grid abscissae lo + span * i / n are computed on Python floats;
    they must equal the array form bit for bit, or the recorded CSVs move."""

    @pytest.mark.parametrize("measure,p", [("mu_ST", None), ("mu_p", 2), ("lambda", 2),
                                           ("lambda", 3), ("lambda", 5), ("lambda", 7)])
    @pytest.mark.parametrize("n", [1, 7, 64, 1000, 150_000])
    def test_list_equals_array_form(self, measure, p, n):
        if measure == "mu_ST":
            density = sato_tate()
        elif measure == "mu_p":
            density = plancherel(p, 1)
        else:
            density = local_spectral(RATIONALS.place_for_prime(p), 1)
        lo, hi = density.lo, density.hi
        span = hi - lo
        listed = [lo + span * i / n for i in range(n + 1)]
        arrayed = lo + span * np.arange(n + 1) / n
        assert np.array(listed).tobytes() == arrayed.tobytes()


# Each case runs the CLI in a fresh interpreter, then lists which heavy
# modules ended up in sys.modules and how many children it forked.
_LOADED_AFTER = """
import os, sys
forks = []
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = fork
from rtflab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version
    code = exc.code
watched = ("numpy", "numpy.random", "mpmath", "rtflab.checks", "rtflab.empirical", "rtflab.oracles",
           "rtflab.characters")
stdlib = ("dataclasses", "fractions", "inspect", "json")
result = [code, [m for m in watched if m in sys.modules], len(forks), [m for m in stdlib if m in sys.modules]]
print(str(result).replace("'", '"'), file=sys.stderr)  # JSON, without importing json
"""


# `check` with its groups cut into argv[1] chunks: what its own process loads.
_LOADED_BY_CHECK_IN_CHUNKS = """
import json, sys
from rtflab import chunked
from rtflab.cli import main
chunks = int(sys.argv[1])
chunked.chunk_count = lambda items, per_chunk: chunks
code = main(["check"])
watched = ("mpmath", "rtflab.lfunctions", "rtflab.rtf_constants", "rtflab.oracles")
print(json.dumps([code, [m for m in watched if m in sys.modules]]), file=sys.stderr)
"""


# The groups of the first chunk on 2 CPUs, then the rtf group, in one
# process: which analytic modules each step has loaded.
_LOADED_BY_EACH_GROUP = """
import json, sys
from rtflab import checks
watched = ("mpmath", "rtflab.lfunctions", "rtflab.rtf_constants")
steps = []
for group in (checks.check_fields, checks.check_characters, checks.check_local_factors,
              checks.check_rtf_constants):
    passed = all(r.passed for r in group(None))
    steps.append([group.__name__, passed, [m for m in watched if m in sys.modules]])
print(json.dumps(steps), file=sys.stderr)
"""


# The whole check suite in this one process: `check` runs the groups past the
# first chunk in forked children, whose imports its parent never sees.
_LOADED_BY_CHECK_GROUPS = """
import json, sys
from rtflab import checks, chunked
chunked.chunk_count = lambda items, per_chunk: 1
results = checks.run_all_checks()
print(json.dumps([len(results), "numpy.random" in sys.modules]), file=sys.stderr)
"""


def python_child(script, *argv):
    """Run ``script`` in a fresh interpreter; its last stderr line, as JSON."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


def loaded_after(*argv):
    return python_child(_LOADED_AFTER, *argv)


# Invocations of every subcommand that loads no numpy.
_NO_NUMPY_ARGV = [
    ["--version"],
    ["constants", "--n", "2^2*3", "--eta", "quad:5"],
    ["constants", "--n", "2^2*3", "--eta", "trivial"],
    ["constants", "--n", "4", "--s-primes", "3,7"],
    ["measure", "--measure", "lambda", "--p", "3", "--sign", "-1", "--grid", "8"],
    ["measure", "--measure", "lambda", "--p", "3", "--sign", "-1", "--grid", "20000"],
    ["characters", "--n", "25"],
    ["mass", "--measure", "mu_p", "--p", "3"],
    ["weights", "--rep", "special", "--sign", "1", "--k", "1"],
]
_NO_NUMPY_IDS = ["version", "constants", "constants-trivial", "constants-s-primes", "measure",
                 "measure-forked", "characters", "mass", "weights"]
_COMPARE_ARGV = ["compare", "--sample", "SAMPLE", "--measure", "mu_p", "--p", "2", "--intervals=0:1"]


def _with_sample(argv, tmp_path):
    """``argv`` with its SAMPLE placeholder replaced by a one-row sample file."""
    path = tmp_path / "sample.csv"
    path.write_text("level_norm,place_q,x,weight\n1,2,0.5,1.0\n", encoding="utf-8")
    return [str(path) if a == "SAMPLE" else a for a in argv]


class TestImportHygiene:
    @pytest.mark.parametrize("argv", _NO_NUMPY_ARGV, ids=_NO_NUMPY_IDS)
    def test_subcommand_loads_no_numpy_checks_or_empirical(self, argv):
        code, loaded, forks, _ = loaded_after(*argv)
        assert code == 0
        # `constants` takes its L-function data in floats, without mpmath;
        # only the subcommands that build characters load `characters`.
        assert loaded == (["rtflab.characters"] if argv[0] in ("constants", "characters") else [])
        # Only the 20000-point grid is long enough to fork, one child per
        # chunk past the first.
        rows = int(argv[-1]) + 1 if argv[0] == "measure" else 0
        assert forks == (chunked.chunk_count(rows, cli.GRID_ROWS_PER_CHUNK) - 1 if rows else 0)

    def test_check_forks_one_child_per_chunk_past_the_first(self):
        code, loaded, forks, _ = loaded_after("check")
        chunks = chunked.chunk_count(6, 1)  # six check groups
        assert code == 0
        assert "rtflab.checks" in loaded
        # This process runs the first 6 // chunks groups: the census oracle
        # is the characters group's (the second), mpmath the rtf group's (the last).
        assert ("rtflab.oracles" in loaded) == (chunks <= 3)
        assert ("mpmath" in loaded) == (chunks == 1)
        assert "numpy.random" not in loaded
        assert forks == chunks - 1

    @pytest.mark.parametrize("chunks", [1, 2, 3, 6])
    def test_only_the_process_running_the_rtf_group_loads_mpmath(self, chunks):
        code, loaded = python_child(_LOADED_BY_CHECK_IN_CHUNKS, str(chunks))
        assert code == 0
        # The characters group (in this process when chunks <= 3) reads
        # L(1, chi_5) off `lfunctions`, which loads no mpmath at import.
        characters = ["rtflab.lfunctions", "rtflab.oracles"] if chunks <= 3 else []
        rtf = ["mpmath", "rtflab.lfunctions", "rtflab.rtf_constants"] if chunks == 1 else []
        assert sorted(loaded) == sorted({*characters, *rtf})

    def test_first_chunk_groups_load_no_mpmath(self):
        assert python_child(_LOADED_BY_EACH_GROUP) == [
            ["check_fields", True, []],
            ["check_characters", True, ["rtflab.lfunctions"]],
            ["check_local_factors", True, ["rtflab.lfunctions"]],
            ["check_rtf_constants", True, ["mpmath", "rtflab.lfunctions", "rtflab.rtf_constants"]],
        ]

    def test_compare_loads_no_numpy_random(self, tmp_path):
        code, loaded, forks, _ = loaded_after(*_with_sample(_COMPARE_ARGV, tmp_path))
        assert (code, loaded, forks) == (0, ["numpy", "rtflab.empirical"], 0)

    @pytest.mark.parametrize("argv", _NO_NUMPY_ARGV + [["check"], _COMPARE_ARGV],
                             ids=_NO_NUMPY_IDS + ["check", "compare"])
    def test_subcommand_loads_no_dataclasses_fractions_or_needless_stdlib(self, argv, tmp_path):
        code, loaded, _, stdlib = loaded_after(*_with_sample(argv, tmp_path))
        assert code == 0
        assert "dataclasses" not in stdlib and "fractions" not in stdlib
        # numpy imports inspect; without numpy nothing rtflab runs needs it.
        assert ("inspect" in stdlib) == ("numpy" in loaded)
        # Only subcommands that read or write JSON load json.
        assert ("json" in stdlib) == (argv[0] not in ("--version", "measure", "characters"))

    def test_check_groups_load_no_numpy_random(self):
        count, random_loaded = python_child(_LOADED_BY_CHECK_GROUPS)
        assert count == 33
        assert random_loaded is False
