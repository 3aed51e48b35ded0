"""The benchmark's correctness gate on the `constants` and `characters` runs.

Every `constants` and `characters` invocation that ``bench/workloads.pool()``
lists runs in process through `rtflab.cli.main`, and its stdout is judged by
the checker of ``bench/verify.py`` against ``bench/reference.json``, as the
benchmark judges it.  So do the sixteen `measure --grid 150000` invocations
of the pool: the eight `lambda` grids, whose kernel is the one whose floats
are easiest to move, and the eight `mu_p` grids.  Both `compare` runs of a
`spectral_io` pass are judged by ``verify.Verifier``, against a CDF table it
builds on its own.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rtflab.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_reference_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _bench_module("workloads")
_VERIFY = _bench_module("verify")
_REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
_CHECKERS = {"constants": _VERIFY.check_constants, "characters": _VERIFY.check_characters}
_POOL = [inv for inv in _WORKLOADS.pool() if inv.kind in _CHECKERS]
_LAMBDA_GRIDS = [
    inv for inv in _WORKLOADS.pool() if inv.kind == "measure" and inv.argv[2] == "lambda"
]
_MU_P_GRIDS = [
    inv for inv in _WORKLOADS.pool() if inv.kind == "measure" and inv.argv[2] == "mu_p"
]


def test_pool_has_every_constants_and_characters_run():
    assert len(_POOL) == 95
    assert {inv.kind for inv in _WORKLOADS.pool()} - set(_CHECKERS) == {"measure"}


@pytest.mark.parametrize("inv", _POOL, ids=[inv.label for inv in _POOL])
def test_output_passes_the_bench_checker(capsys, inv):
    code = main(list(inv.argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert _CHECKERS[inv.kind](captured.out.encode("utf-8"), inv.expect, _REFERENCE) is None


def _run_grid(capsys, inv) -> None:
    code = main(list(inv.argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert _VERIFY.check_measure(captured.out.encode("utf-8"), inv.expect, _REFERENCE) is None


@pytest.mark.parametrize("inv", _LAMBDA_GRIDS, ids=[inv.label for inv in _LAMBDA_GRIDS])
def test_lambda_grid_matches_the_reference_bytes(capsys, inv):
    assert len(_LAMBDA_GRIDS) == 8
    _run_grid(capsys, inv)


@pytest.mark.parametrize("inv", _MU_P_GRIDS, ids=[inv.label for inv in _MU_P_GRIDS])
def test_mu_p_grid_matches_the_reference_bytes(capsys, inv):
    assert len(_MU_P_GRIDS) == 8
    _run_grid(capsys, inv)


def test_spectral_io_compare_runs_pass_the_bench_verifier(capsys, tmp_path):
    # The lambda kernel feeds the CDF table of `compare --measure lambda`.
    workload = _WORKLOADS.build("spectral_io", 1, tmp_path, _REFERENCE)
    verify = _VERIFY.Verifier(_REFERENCE, workload.samples)
    compares = [inv for inv in workload.invocations if inv.kind == "compare"]
    assert [inv.expect["measure"] for inv in compares] == ["mu_p", "lambda"]
    for inv in compares:
        code = main(list(inv.argv))
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert verify(inv, captured.out.encode("utf-8")) is None, inv.label
