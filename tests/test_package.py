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
    "characters": ["DirichletCharacter", "QuadraticCharacterProfile", "adelic_gauss_sum",
                   "enumerate_xi", "gauss_sum", "is_admissible_level", "l_one"],
    "local_factors": ["HigherConductor", "LocalRepresentation", "Special", "Spherical",
                      "adjoint_norm_factor", "global_weight",
                      "local_l_arch_spherical", "local_l_character", "local_l_spherical",
                      "period_constant", "r_weight"],
    "special": ["abs_gamma_iy_sq_inv", "digamma", "gamma", "gamma_r"],
    "quadrature": ["QuadratureResult", "integrate"],
    "measures": ["Density", "local_spectral", "plancherel", "pushforward_check", "sato_tate",
                 "spectral_pairing"],
    "lfunctions": ["EdgeCoefficients", "LaurentData", "completed_l", "edge_coefficients",
                   "laurent_at_1"],
    "rtf_constants": ["EdgePlaceBlock", "EtaContext", "RhoAssignment", "edge_place_factor",
                      "eta_context", "intertwining_ratio", "kernel_normalization",
                      "level_constant", "mean_square_constant", "predicted_moment_average",
                      "spectral_edge_constant", "unipotent_orbit_constant",
                      "unipotent_orbit_factor"],
    "oracles": ["edge_product_taylor", "enumerate_rho"],
    "empirical": ["EmpiricalSample", "compare_report", "inverse_cdf_sample", "read_sample_csv",
                  "write_sample_csv"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_sixty_one_names():
    assert len(NAMES) == 61
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


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rtflab"

# Exported names that no subcommand, check, demo or bench script reads yet,
# each with the ROADMAP entry that gives it a caller.
PENDING = {
    "global_weight": "acceptance criterion 5 (w = 1 at the conductor)",
    "is_admissible_level": "item 3: the Hecke moment pairing check",
    "kernel_normalization": "item 3: the Hecke moment pairing check",
    "predicted_moment_average": "item 3: the Hecke moment pairing check",
    "local_l_spherical": "item 5: the oracle of the lambda kernel",
}


def referenced_names(path: Path) -> set[str]:
    """Every name a file reads, as a bare name, an attribute or an import."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in node.names)
    return out


def test_every_export_has_a_route():
    # A route is a subcommand or check (the library modules other than the
    # name's own and the package namespace), a demo or a bench script.
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    reads = {path: referenced_names(path) for path in files}
    unrouted = []
    for name in rtflab.__all__:
        home = SRC / (getattr(rtflab, name).__module__.rpartition(".")[2] + ".py")
        if not any(name in reads[path] for path in files if path not in (home, SRC / "__init__.py")):
            unrouted.append(name)
    assert sorted(unrouted) == sorted(PENDING)


def _bound_names(node: ast.AST) -> set[str]:
    """Absolute names of the modules one import statement of the flat
    `rtflab` package imports, and of each name it imports from a module."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        module = ".".join(filter(None, ["rtflab" if node.level else "", node.module]))
        return {module} | {f"{module}.{alias.name}" for alias in node.names}
    return set()


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports, wherever the import statement is."""
    return set().union(*map(_bound_names, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))


def import_time_modules(path: Path) -> set[str]:
    """The modules a file imports when it is itself imported: every import
    outside function bodies and `if TYPE_CHECKING:` blocks."""
    out = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            children = node.orelse
        else:
            out.update(_bound_names(node))
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return out


def functions_importing(path: Path, module: str) -> list[str]:
    """The top-level functions of a file whose bodies import ``module``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(module in _bound_names(inner) for inner in ast.walk(node))
    )


def test_only_checks_imports_the_oracles():
    # The production modules keep one route per job; the second routes are
    # reached from the check suite (and the tests) only.
    importers = sorted(p.stem for p in SRC.glob("*.py") if "rtflab.oracles" in imported_modules(p))
    assert importers == ["checks"]


# mpmath and the modules that load it; the census check must not need them.
ANALYTIC = ("mpmath", "rtflab.lfunctions", "rtflab.rtf_constants")


def test_oracles_import_no_analytic_module_at_import_time():
    assert not import_time_modules(SRC / "oracles.py") & set(ANALYTIC)
    assert "numpy" in import_time_modules(SRC / "oracles.py")


def test_checks_import_the_analytic_modules_in_the_rtf_group_only():
    # Each check group imports what it runs, so only the process that runs
    # `check_rtf_constants` loads mpmath.
    path = SRC / "checks.py"
    assert not import_time_modules(path) & {*ANALYTIC, "rtflab.oracles"}
    assert {m: functions_importing(path, m) for m in (*ANALYTIC, "rtflab.oracles")} == {
        "mpmath": [],
        "rtflab.lfunctions": ["check_rtf_constants"],
        "rtflab.rtf_constants": ["check_rtf_constants"],
        "rtflab.oracles": ["check_rtf_constants", "xi_matches_brute_force"],
    }


def test_the_constants_path_imports_mpmath_only_inside_functions():
    # `constants` runs on float closed forms; mpmath is imported by the
    # working-precision evaluators that `check` and the library calls use.
    for name in ("lfunctions", "rtf_constants"):
        assert "mpmath" not in import_time_modules(SRC / f"{name}.py"), name
    assert functions_importing(SRC / "lfunctions.py", "mpmath") == [
        "_chi_values_mp", "_completed_l_mp", "_gauss_adelic_mp", "_l_fin_mp", "completed_l", "l_fin",
        "zeta_ratio",
    ]
    assert "mpmath" not in imported_modules(SRC / "rtf_constants.py")


def optional_character_annotations(source: str) -> list[str]:
    """``function(argument)`` for each parameter or return annotated
    ``DirichletCharacter | None``, in either order, with or without a module
    prefix or quotes."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        annotated = [(p.arg, p.annotation) for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        for label, annotation in [*annotated, ("return", node.returns)]:
            text = ast.unparse(annotation).strip("'\"") if annotation else ""
            members = {m.strip().split(".")[-1] for m in text.split("|")}
            if {"DirichletCharacter", "None"} <= members:
                out.append(f"{node.name}({label})")
    return out


def test_no_function_takes_or_returns_an_optional_dirichlet_character():
    # The trivial character is DirichletCharacter.trivial(), never None.
    found = {
        path.name: optional_character_annotations(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_optional_character_scan_sees_every_spelling():
    # The scan above would pass vacuously if it missed a spelling.
    source = (
        "def f(a: DirichletCharacter | None, b: 'chars.DirichletCharacter | None', *,\n"
        "      c: list[DirichletCharacter] | None = None) -> None | DirichletCharacter: ...\n"
    )
    assert optional_character_annotations(source) == ["f(a)", "f(b)", "f(return)"]


def test_local_factors_imports_characters_for_annotations_only():
    path = SRC / "local_factors.py"
    assert "rtflab.characters" in imported_modules(path)
    assert "rtflab.characters" not in import_time_modules(path)


def test_import_time_modules_skips_functions_and_type_checking_blocks():
    # the guards above would pass vacuously if the walk missed top-level imports
    assert "rtflab.characters.unit_group" in import_time_modules(SRC / "lfunctions.py")
    assert "mpmath" in imported_modules(SRC / "lfunctions.py")
    assert "numpy" not in import_time_modules(SRC / "characters.py")
    assert "numpy" in imported_modules(SRC / "characters.py")
