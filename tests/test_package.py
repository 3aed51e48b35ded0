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
    "fields": ["ArchimedeanPlace", "FinitePlace", "LevelIdeal", "RATIONALS", "index_k0"],
    "characters": ["DirichletCharacter", "enumerate_xi", "gauss_sum", "is_admissible_level"],
    "local_factors": ["HigherConductor", "Special", "Spherical",
                      "adjoint_norm_factor", "global_weight",
                      "local_l_character", "local_l_spherical",
                      "period_constant", "r_weight"],
    "special": ["digamma", "gamma", "orbit_gamma_ratio"],
    "quadrature": ["QuadratureResult", "integrate"],
    "measures": ["Density", "local_spectral", "plancherel", "pushforward_check", "sato_tate",
                 "spectral_pairing"],
    "lfunctions": ["EdgeCoefficients", "LaurentData", "edge_coefficients", "laurent_at_1"],
    "rtf_constants": ["edge_place_factor", "kernel_normalization",
                      "level_constant", "predicted_moment_average",
                      "spectral_edge_constant", "unipotent_orbit_constant",
                      "unipotent_orbit_factor"],
    "oracles": ["completed_l", "edge_product_taylor", "enumerate_rho", "intertwining_ratio"],
    "empirical": ["EmpiricalSample", "compare_report", "inverse_cdf_sample", "read_sample_csv",
                  "write_sample_csv"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_forty_nine_names():
    assert len(NAMES) == 49
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


MODULES = sorted(path.stem for path in Path(rtflab.__file__).parent.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_no_route_takes_a_field_datum(module):
    # Q is the only base field: no function or method of the package takes a
    # field profile or a discriminant.
    import importlib
    import inspect

    mod = importlib.import_module(f"rtflab.{module}")
    routes = []
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            routes += [f for f in vars(obj).values() if callable(getattr(f, "__func__", f))]
        elif callable(obj):
            routes.append(obj)
    assert routes
    found = []
    for route in routes:
        route = getattr(route, "__func__", route)
        try:
            parameters = inspect.signature(route).parameters
        except (TypeError, ValueError):
            continue
        found += [f"{route.__qualname__}({name})" for name in parameters
                  if name in ("profile", "discriminant", "discriminant_abs")]
    assert found == []


def test_submodules_still_import_by_name():
    from rtflab import checks, empirical

    assert checks.run_all_checks is sys.modules["rtflab.checks"].run_all_checks
    assert empirical.read_sample_csv is rtflab.read_sample_csv


def _loaded_after(statement: str) -> list[str]:
    """The `rtflab` submodules and numpy loaded in a fresh interpreter after
    ``statement``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        f"import sys; {statement}; "
        "print(sorted(m for m in sys.modules if m.startswith('rtflab.') or m == 'numpy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import rtflab") == []


def test_measures_loads_no_character_or_l_function_module():
    # The pairing takes eta for its signs only (an annotation), so the
    # `measure` and `compare` cold start stays free of both.
    loaded = _loaded_after("import rtflab.measures")
    assert "rtflab.measures" in loaded
    assert not {"rtflab.characters", "rtflab.lfunctions"} & set(loaded)


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


def public_members(cls: type) -> dict[str, bool]:
    """The public methods and properties that the body of ``cls`` defines,
    each mapped to whether it is a property."""
    kinds = (property, classmethod, staticmethod)
    return {
        name: isinstance(value, property)
        for name, value in sorted(vars(cls).items())
        if not name.startswith("_") and (callable(value) or isinstance(value, kinds))
    }


def member_uses(source: str) -> tuple[set[str], set[str]]:
    """(names read as an attribute, names called as an attribute) in ``source``."""
    tree = ast.parse(source)
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    called = {
        node.func.attr for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    return read, called


def unused_members(members: dict[str, bool], read: set[str], called: set[str]) -> list[str]:
    """The members nothing uses: a property must be read as an attribute, a
    method or classmethod called through one (``x.name(...)``), so a field
    or property of the same name does not count as a call."""
    return [
        m for m, is_property in members.items()
        if m.rpartition(".")[2] not in (read if is_property else called)
    ]


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
    # Every public property of an exported class is read as an attribute,
    # and every public method called as one, somewhere in src, demos or
    # bench (its own module included).
    read, called = set(), set()
    for path in files:
        r, c = member_uses(path.read_text(encoding="utf-8"))
        read |= r
        called |= c
    members = {
        f"{name}.{member}": is_property
        for name in rtflab.__all__
        if isinstance(getattr(rtflab, name), type)
        for member, is_property in public_members(getattr(rtflab, name)).items()
    }
    assert len(members) > 25
    assert unused_members(members, read, called) == []


def test_member_rule_needs_a_call_for_a_method():
    # A field read of the same name stands in for neither a method nor a
    # classmethod; a property is used by any read.
    read, called = member_uses("rep.place.q\nlevel.norm\nx.sign_at(p)\nf(eta.edge)\n")
    members = {"Level.place": False, "Q.sign_at": False, "E.edge": True, "F.gone": True}
    assert unused_members(members, read, called) == ["Level.place", "F.gone"]


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


def test_checks_load_mpmath_and_rtf_constants_in_the_rtf_group_only():
    # Each check group imports what it runs, so only the process that runs
    # `check_rtf_constants` loads mpmath or `rtf_constants`.  `lfunctions`,
    # which `check_characters` reads L(1, chi_5) from, loads no mpmath, and
    # `oracles`, which the sign, census and gamma checks read, loads it only
    # inside its working-precision routes.
    path = SRC / "checks.py"
    assert not import_time_modules(path) & {*ANALYTIC, "rtflab.oracles"}
    assert functions_importing(path, "mpmath") == []
    assert functions_importing(path, "rtflab.rtf_constants") == ["check_rtf_constants"]
    assert "mpmath" not in import_time_modules(SRC / "lfunctions.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys\n"
        "from rtflab import checks\n"
        "groups = (checks.check_fields, checks.check_characters, checks.check_local_factors,\n"
        "          checks.check_measures, checks.check_gamma)\n"
        "results = [r for group in groups for r in group(None)]\n"
        "assert results and all(r.passed for r in results), [r for r in results if not r.passed]\n"
        "print(sorted(m for m in ('mpmath', 'rtflab.rtf_constants') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def satake_map_uses(path: Path) -> list[str]:
    """Each arccos call and each window 2 pi / log q built in a file: the
    Satake variable x = 2 cos(theta) and the window belong to `measures`."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("acos", "arccos"):
                hits.append(ast.unparse(node))
        elif isinstance(node, ast.BinOp) and ast.unparse(node).startswith("2.0 * math.pi / math.log("):
            hits.append(ast.unparse(node))
    return hits


def identifiers(path: Path) -> set[str]:
    """Every name a file defines, binds or reads."""
    out = referenced_names(path)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
    return out


def test_measures_alone_owns_the_satake_variable_and_the_window():
    users = {path.stem: satake_map_uses(path) for path in sorted(SRC.glob("*.py"))}
    assert {stem for stem, hits in users.items() if hits} == {"measures"}
    assert any("acos" in hit for hit in users["measures"])
    assert any("math.log" in hit for hit in users["measures"])
    # The quadrature rules know nothing of densities or of the substitution.
    assert not [n for n in identifiers(SRC / "quadrature.py") if "density" in n.lower() or "cos" in n.lower()]
    # The scan sees parameters and definitions, not only the names read.
    assert {"density", "theta_integrand"} <= identifiers(SRC / "measures.py")


def test_no_module_but_oracles_imports_mpmath():
    # `constants` runs on float closed forms; the working precision is known
    # in one module, whose routes `check` compares those forms with.
    importers = sorted(p.stem for p in SRC.glob("*.py") if "mpmath" in imported_modules(p))
    assert importers == ["oracles"]


# Types that have one spelling each, never None: the trivial character is
# DirichletCharacter.trivial(), an archimedean place is an ArchimedeanPlace and
# a character value at a uniformizer is a complex number.
CHARACTER = ("DirichletCharacter",)
PLACE_OR_VALUE = ("Place", "ArchimedeanPlace", "FinitePlace", "complex")


def optional_annotations(source: str, types=CHARACTER) -> list[str]:
    """``function(argument)`` for each parameter or return annotated
    ``T | None`` for a T in ``types``, in either order, with or without a
    module prefix or quotes."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        annotated = [(p.arg, p.annotation) for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        for label, annotation in [*annotated, ("return", node.returns)]:
            text = ast.unparse(annotation).strip("'\"") if annotation else ""
            members = {m.strip().split(".")[-1] for m in text.split("|")}
            if "None" in members and members & set(types):
                out.append(f"{node.name}({label})")
    return out


def _optional_annotations_in_src(types) -> dict[str, list[str]]:
    found = {
        path.name: optional_annotations(path.read_text(encoding="utf-8"), types)
        for path in sorted(SRC.glob("*.py"))
    }
    return {name: hits for name, hits in found.items() if hits}


def sign_callable_parameters(source: str) -> list[str]:
    """``function(argument)`` for each parameter annotated
    ``Callable[[FinitePlace], int]`` (a sign of eta passed apart from eta) or
    named ``l_one_eta`` (its L(1) passed apart from eta)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        for p in (*a.posonlyargs, *a.args, *a.kwonlyargs):
            text = ast.unparse(p.annotation).strip("'\"").replace(" ", "") if p.annotation else ""
            if p.arg == "l_one_eta" or text == "Callable[[FinitePlace],int]":
                out.append(f"{node.name}({p.arg})")
    return out


def test_eta_enters_as_the_character_alone():
    # eta is a DirichletCharacter; its signs and its L(1) are read off it.
    found = {
        path.name: hits for path in sorted(SRC.glob("*.py"))
        if (hits := sign_callable_parameters(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    sample = "def f(sign_at: Callable[[FinitePlace], int], l_one_eta: float, g: 'Callable[[FinitePlace, int], Jet]'): ..."
    assert sign_callable_parameters(sample) == ["f(sign_at)", "f(l_one_eta)"]


def test_no_function_takes_or_returns_an_optional_dirichlet_character():
    # The trivial character is DirichletCharacter.trivial(), never None.
    assert _optional_annotations_in_src(CHARACTER) == {}


def test_no_function_takes_an_optional_place_or_character_value():
    # local_spectral takes an ArchimedeanPlace, never None, and
    # local_l_character an unramified character's value.
    assert _optional_annotations_in_src(PLACE_OR_VALUE) == {}


def test_optional_character_scan_sees_every_spelling():
    # The scans above would pass vacuously if they missed a spelling.
    source = (
        "def f(a: DirichletCharacter | None, b: 'chars.DirichletCharacter | None', *,\n"
        "      c: list[DirichletCharacter] | None = None) -> None | DirichletCharacter: ...\n"
        "def g(place: Place | None, arch: 'fields.ArchimedeanPlace | None',\n"
        "      chi: complex | None, q: FinitePlace | ArchimedeanPlace | None, n: int | None): ...\n"
    )
    assert optional_annotations(source) == ["f(a)", "f(b)", "f(return)"]
    assert optional_annotations(source, PLACE_OR_VALUE) == ["g(place)", "g(arch)", "g(chi)", "g(q)"]


def test_local_factors_imports_characters_for_annotations_only():
    path = SRC / "local_factors.py"
    assert "rtflab.characters" in imported_modules(path)
    assert "rtflab.characters" not in import_time_modules(path)


def test_import_time_modules_skips_functions_and_type_checking_blocks():
    # the guards above would pass vacuously if the walk missed top-level imports
    assert "rtflab.characters.DirichletCharacter" in import_time_modules(SRC / "oracles.py")
    assert "mpmath" in imported_modules(SRC / "oracles.py")
    assert "mpmath" not in import_time_modules(SRC / "oracles.py")
    assert "numpy" not in import_time_modules(SRC / "characters.py")
    assert "numpy" in imported_modules(SRC / "characters.py")
