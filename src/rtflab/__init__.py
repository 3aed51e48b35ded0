"""rtflab: explicit constants, weights and spectral measures of GL(2)
central L-value averages over totally real fields, with everything testable
at desk scale.

The public names below load on first access (PEP 562), so importing the
package, or one subcommand of the CLI, pulls in only the modules it uses:
numpy is imported by the array paths alone.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "fields": (
        "ArchimedeanPlace",
        "FieldProfile",
        "FinitePlace",
        "LevelIdeal",
        "RATIONALS",
        "index_k0",
    ),
    "characters": (
        "DirichletCharacter",
        "enumerate_xi",
        "gauss_sum",
        "is_admissible_level",
    ),
    "local_factors": (
        "HigherConductor",
        "Special",
        "Spherical",
        "adjoint_norm_factor",
        "global_weight",
        "local_l_character",
        "local_l_spherical",
        "period_constant",
        "r_weight",
    ),
    "special": ("digamma", "gamma", "orbit_gamma_ratio"),
    "quadrature": ("QuadratureResult", "integrate"),
    "measures": (
        "Density",
        "local_spectral",
        "plancherel",
        "pushforward_check",
        "sato_tate",
        "spectral_pairing",
    ),
    "lfunctions": (
        "EdgeCoefficients",
        "LaurentData",
        "edge_coefficients",
        "laurent_at_1",
    ),
    "rtf_constants": (
        "edge_place_factor",
        "kernel_normalization",
        "level_constant",
        "predicted_moment_average",
        "spectral_edge_constant",
        "unipotent_orbit_constant",
        "unipotent_orbit_factor",
    ),
    "oracles": ("completed_l", "edge_product_taylor", "enumerate_rho", "intertwining_ratio"),
    "empirical": (
        "EmpiricalSample",
        "compare_report",
        "inverse_cdf_sample",
        "read_sample_csv",
        "write_sample_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
