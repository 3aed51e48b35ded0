"""The package namespace: every public name resolves lazily to the object
its module defines, and importing the package alone loads no submodule."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rtflab

# The public names of `rtflab`, by the module that defines each.
EXPORTED = {
    "fields": ["ArchimedeanPlace", "FieldProfile", "FinitePlace", "LevelIdeal", "RATIONALS",
               "index_k0"],
    "characters": ["DirichletCharacter", "GaussSumValue", "QuadraticCharacterProfile",
                   "adelic_gauss_sum", "enumerate_character_group", "enumerate_xi",
                   "gauss_sum", "is_admissible_level", "l_one"],
    "local_factors": ["HigherConductor", "LocalRepresentation", "Special", "Spherical",
                      "adjoint_norm_factor", "global_weight",
                      "local_l_arch_spherical", "local_l_character", "local_l_spherical",
                      "period_constant", "r_weight"],
    "special": ["abs_gamma_iy_sq_inv", "digamma", "gamma", "gamma_r"],
    "quadrature": ["QuadratureResult", "integrate"],
    "measures": ["Density", "local_spectral", "local_spectral_density", "plancherel",
                 "plancherel_density", "pushforward_check", "sato_tate", "sato_tate_density",
                 "spectral_pairing"],
    "lfunctions": ["EdgeCoefficients", "LaurentData", "completed_l", "completed_zeta",
                   "edge_coefficients", "laurent_at_1"],
    "rtf_constants": ["EdgePlaceBlock", "EtaContext", "RhoAssignment", "edge_place_factor",
                      "eta_context", "intertwining_ratio", "kernel_normalization",
                      "level_constant", "mean_square_constant", "predicted_moment_average",
                      "spectral_edge_constant", "unipotent_orbit_constant",
                      "unipotent_orbit_factor"],
    "oracles": ["edge_product_taylor", "enumerate_rho", "flat_section_at_identity"],
    "empirical": ["EmpiricalSample", "compare_report", "inverse_cdf_sample", "ks_distance",
                  "read_sample_csv", "write_sample_csv"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_sixty_nine_names():
    assert len(NAMES) == 69
    assert sorted(rtflab.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_its_module_object(module, name):
    import importlib

    assert getattr(rtflab, name) is getattr(importlib.import_module(f"rtflab.{module}"), name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from rtflab import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(sys.modules[f"rtflab.{module}"], name)


def test_dir_lists_every_name():
    listed = dir(rtflab)
    assert "__version__" in listed
    for _, name in NAMES:
        assert name in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rtflab.no_such_name
    assert not hasattr(rtflab, "run_all_checks")


def test_submodules_still_import_by_name():
    from rtflab import checks, empirical

    assert checks.run_all_checks is sys.modules["rtflab.checks"].run_all_checks
    assert empirical.read_sample_csv is rtflab.read_sample_csv


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        "import sys, rtflab; "
        "print(sorted(m for m in sys.modules if m.startswith('rtflab.') or m == 'numpy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules a file of the flat `rtflab` package
    imports, and of each name it imports from a module."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["rtflab" if node.level else "", node.module]))
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_only_checks_imports_the_oracles():
    # The production modules keep one route per job; the second routes are
    # reached from the check suite (and the tests) only.
    src = Path(__file__).resolve().parent.parent / "src" / "rtflab"
    importers = sorted(p.stem for p in src.glob("*.py") if "rtflab.oracles" in imported_modules(p))
    assert importers == ["checks"]
