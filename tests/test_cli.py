import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rtflab import chunked, cli
from rtflab.cli import main
from rtflab.errors import PoleError
from rtflab.empirical import inverse_cdf_sample, sample_from_rows, write_sample_csv
from rtflab.fields import RATIONALS
from rtflab.measures import (
    Density,
    local_spectral,
    local_spectral_density,
    plancherel,
    plancherel_density,
    sato_tate,
    sato_tate_density,
)


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
        code, _, err = run(capsys, "compare", "--sample", "/nonexistent.csv", "--measure", "mu_ST")
        assert code == 2


class TestProfileAndUsage:
    def test_corrupt_profile_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "profile.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "constants", "--n", "1", "--profile", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "usage"

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


class TestFlagsPerSubcommand:
    """Each subcommand accepts exactly the common flags it reads."""

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
        Path("profile.json").write_text(RATIONALS.to_json(), encoding="utf-8")
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
        assert "mixes place_q" in json.loads(err)["message"]

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


def per_point_grid(measure, p, sign, n, ymax=10.0):
    """The CSV of `rtflab measure`, one point at a time through the public
    scalar densities, as the per-point loop wrote it."""
    if measure == "mu_ST":
        lo, hi, tag, fn = -2.0, 2.0, "mu_ST", sato_tate_density
    elif measure == "mu_p":
        lo, hi, tag = -2.0, 2.0, plancherel(p, sign).tag
        fn = lambda x: plancherel_density(x, p, sign)
    else:
        place = RATIONALS.place_for_prime(p)
        density = local_spectral(place, sign)
        lo, hi, tag = density.lo, density.hi, density.tag
        fn = lambda y: local_spectral_density(y, place, sign)
    lines = ["x_or_y,density,measure_tag,place_q,sign"]
    for i in range(n + 1):
        x = lo + (hi - lo) * i / n
        lines.append(f"{x!r},{fn(x)!r},{tag},{p or 0},{sign:+d}")
    return "\n".join(lines) + "\n"


class TestMeasureGridByteIdentity:
    @pytest.mark.parametrize(
        "measure,p,sign",
        [("mu_ST", None, 1), ("mu_p", 2, 1), ("mu_p", 7, -1), ("lambda", 3, 1), ("lambda", 5, -1)],
    )
    def test_grid_equals_per_point_loop(self, capsys, measure, p, sign):
        argv = ["measure", "--measure", measure, "--sign", str(sign), "--grid", "64"]
        if p is not None:
            argv += ["--p", str(p)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == per_point_grid(measure, p, sign, 64)

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
        argv = ["measure", "--measure", measure, "--sign", str(sign), "--grid", str(grid)]
        if p is not None:
            argv += ["--p", str(p)]
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
import json, os, sys
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
watched = ("numpy", "rtflab.checks", "rtflab.empirical")
print(json.dumps([code, [m for m in watched if m in sys.modules], len(forks)]), file=sys.stderr)
"""


def loaded_after(*argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


class TestImportHygiene:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--version"],
            ["constants", "--n", "2^2*3", "--eta", "quad:5"],
            ["measure", "--measure", "lambda", "--p", "3", "--sign", "-1", "--grid", "8"],
            ["measure", "--measure", "lambda", "--p", "3", "--sign", "-1", "--grid", "20000"],
            ["characters", "--n", "25"],
        ],
        ids=["version", "constants", "measure", "measure-forked", "characters"],
    )
    def test_subcommand_loads_no_numpy_checks_or_empirical(self, argv):
        code, loaded, forks = loaded_after(*argv)
        assert code == 0
        assert loaded == []
        # Only the 20000-point grid is long enough to fork, one child per
        # chunk past the first.
        rows = int(argv[-1]) + 1 if argv[0] == "measure" else 0
        assert forks == (chunked.chunk_count(rows, cli.GRID_ROWS_PER_CHUNK) - 1 if rows else 0)

    def test_check_forks_one_child_per_chunk_past_the_first(self):
        code, loaded, forks = loaded_after("check")
        assert code == 0
        assert "rtflab.checks" in loaded
        assert forks == chunked.chunk_count(6, 1) - 1  # six check groups
