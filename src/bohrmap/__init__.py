"""Bohr radii for univalent harmonic mappings.

Truncation-exact power series, dilatation-coupled coefficient
construction, certified root solving for the radius equations, and
grid verification of the Bohr inequalities the radii govern.

``import bohrmap`` loads numpy alone.  Each public name below is imported
from its submodule on first access (PEP 562) and then kept in the package
namespace, so a command loads only the layers it runs.
"""

import importlib

# Every layer needs numpy, so loading it here costs nothing extra; it also
# keeps numpy's import inside ``import bohrmap`` for ``-X importtime``.
import numpy  # noqa: F401

__version__ = "0.1.0"

# The public names of each submodule.
_EXPORTS = {
    "bohr": (
        "DEFAULT_GRID_SIZE", "DEFAULT_MARGIN", "BohrProfile", "bohr_partial_sum",
        "boundary_reach", "check_pairing", "default_bound_inputs", "extremal_pairing",
        "profile_for_named_map", "sharpness_scan", "verify_inequality",
    ),
    "catalog": (
        "ALIASES", "MAP_NAMES", "MAP_TABLE", "MapSpec", "NamedMap", "closed_form_eval",
        "make_map", "resolve_name",
    ),
    "dilatation": (
        "MOBIUS_VARIANTS", "MobiusDilatation", "MonomialDilatation",
        "dilatation_residual", "g_from_mobius", "g_from_monomial",
    ),
    "radii": (
        "THEOREM_ALIASES", "VARIANT_TABLE", "VARIANTS", "RadiusProblem", "Variant",
        "closed_form_radius", "m2_tail", "majorant_value", "resolve_variant",
    ),
    "selfcheck": ("CheckResult", "run_selfcheck"),
    "series": (
        "DEFAULT_COMPOSE_ORDER", "DEFAULT_ORDER", "HarmonicMap", "PowerSeries",
        "cauchy_product", "circle_grid", "compose", "eval_harmonic", "evaluate",
        "evaluate_on_circle", "term_differentiate", "term_integrate",
    ),
    "solver": (
        "DEFAULT_BRACKET", "RESIDUAL_TOL", "WIDTH_TOL", "RootCertificate",
        "bracket_root", "min_rule_radius", "solve_radius",
    ),
    "subordination": (
        "DOMINATION_TOL", "MAX_BLASCHKE_MODULUS", "MAX_RANDOM_DEGREE",
        "SchwarzFunction", "check_domination",
        "check_harmonic_subordination_bound", "domination_campaign",
        "monomial_schwarz", "random_schwarz", "schwarz_sup", "subordinate",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, "__version__"])


def __getattr__(name):
    if name in _EXPORTS:
        # ``bohrmap.series`` and the other layers, bound by their import
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
