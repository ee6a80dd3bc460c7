"""Invariants across the variant, map and argument-domain tables, and the package's exports.

Every record of ``VARIANT_TABLE`` and ``MAP_TABLE`` is checked here, so a
new theorem or map is covered without editing this file.  Every argument
of ``series._PARAM_RULES`` is refused alike by each entry point taking it.
"""

import importlib
import itertools
import types

import numpy as np
import pytest

import bohrmap
from bohrmap import (
    MAP_NAMES,
    MAP_TABLE,
    VARIANT_TABLE,
    VARIANTS,
    BohrProfile,
    MobiusDilatation,
    MonomialDilatation,
    NamedMap,
    RadiusProblem,
    bohr_partial_sum,
    boundary_reach,
    bracket_root,
    closed_form_radius,
    default_bound_inputs,
    extremal_pairing,
    majorant_value,
    make_map,
    monomial_schwarz,
    profile_for_named_map,
    resolve_name,
    resolve_variant,
    run_selfcheck,
    sharpness_scan,
    solve_radius,
    verify_inequality,
)
from bohrmap.catalog import MAP
from bohrmap.selfcheck import IMAGE_REACH_PAIRS
from bohrmap.series import _PARAM_RULES

# Parameter values every record is checked at, spanning each range.
SAMPLES = {"K": (1.0, 3.0, 1e300), "k": (0.25, 1.0), "n": (1, 4)}


def problems(variant):
    """Every combination of sample values for the variant's parameters."""
    values = [SAMPLES[name] for name in variant.params]
    for combo in itertools.product(*values):
        yield RadiusProblem(variant.name, **dict(zip(variant.params, combo)))


def by_name(records):
    return pytest.mark.parametrize("record", records, ids=[r.name for r in records])


def test_tags_and_aliases_are_unique_and_resolve():
    for names, records, resolve in (
        (VARIANTS, VARIANT_TABLE, resolve_variant),
        (MAP_NAMES, MAP_TABLE, resolve_name),
    ):
        assert len(set(names)) == len(records)
        aliases = [r.alias for r in records if r.alias]
        assert len(set(aliases)) == len(aliases)
        for record in records:
            assert resolve(record.name) == record.name
            if record.alias:
                assert record.alias not in names  # an alias never shadows a tag
                assert resolve(record.alias) == record.name


@by_name(VARIANT_TABLE)
def test_variant_record_is_well_formed(record):
    assert set(record.params) <= set(SAMPLES)
    assert record.bound in ("1", "d", "1+|a|")
    assert record.closed_form or record.majorant


@by_name(VARIANT_TABLE)
def test_only_a_unit_bound_is_the_variants_own(record):
    # a "d" or "1+|a|" bound comes from the caller, so omitting it is refused
    f = make_map(NamedMap("half_plane_analytic", order=10))
    for p in problems(record):
        if record.bound == "1":
            assert p.bound() == 1.0
            continue
        with pytest.raises(ValueError, match="bound needs the"):
            p.bound()
        with pytest.raises(ValueError, match="bound needs the"):
            verify_inequality(f, p)


@by_name([v for v in VARIANT_TABLE if v.majorant])
def test_majorant_changes_sign(record):
    for p in problems(record):
        assert majorant_value(p, 0.001) < 0.0 < majorant_value(p, 0.99)


@by_name([v for v in VARIANT_TABLE if v.closed_form])
def test_closed_form_lies_in_unit_interval(record):
    for p in problems(record):
        assert 0.0 < closed_form_radius(p) < 1.0


def test_each_radius_route_answers_exactly_when_the_record_has_it():
    # the route a record lacks raises, naming the route it has
    for record in VARIANT_TABLE:
        for p in problems(record):
            if record.closed_form:
                assert isinstance(closed_form_radius(p), float)
            else:
                with pytest.raises(ValueError, match=f"^{p.variant} has a root-defined "
                                   "radius; use solve_radius$"):
                    closed_form_radius(p)
            if record.majorant:
                assert isinstance(majorant_value(p, 0.5), float)
            else:
                with pytest.raises(ValueError, match=f"^{p.variant} has a closed-form "
                                   "radius; use closed_form_radius$"):
                    majorant_value(p, 0.5)


@by_name(MAP_TABLE)
def test_map_witnesses_are_real_variants_with_presets(record):
    assert record.member_of
    witnessed = [v for v in VARIANT_TABLE if v.name in record.member_of]
    assert len(witnessed) == len(record.member_of)
    assert set(record.extremal_for) <= set(record.member_of)
    if any(v.bound == "d" for v in witnessed):
        assert record.distance is not None and record.distance > 0.0
    pinned = {name for name, _ in record.pins}
    assert pinned <= {name for v in witnessed for name in v.params}
    assert record.tail_constant > 0.0


EXTREMAL = [(r.name, v) for r in MAP_TABLE for v in r.extremal_for]
MEMBER_ONLY = [(r.name, v) for r in MAP_TABLE for v in r.member_of if v not in r.extremal_for]


def pairing_ids(pairs):
    return [f"{name}-{variant}" for name, variant in pairs]


@pytest.mark.parametrize("name, variant", EXTREMAL, ids=pairing_ids(EXTREMAL))
def test_extremal_map_attains_the_radius(name, variant):
    # holds below the radius, and the bare sum overshoots just past it
    spec, p = extremal_pairing(name, variant, K=3.0)
    assert profile_for_named_map(spec, p).all_pass
    f, bound = make_map(spec), default_bound_inputs(spec, p)
    for epsilon in (1e-2, 1e-3):
        assert sharpness_scan(f, p, epsilon, **bound) > 0.0


@pytest.mark.parametrize("name, variant", MEMBER_ONLY, ids=pairing_ids(MEMBER_ONLY))
def test_member_only_map_stays_below_the_bound(name, variant):
    spec, p = extremal_pairing(name, variant, K=3.0)
    assert profile_for_named_map(spec, p).all_pass
    assert sharpness_scan(make_map(spec), p, 1e-2, **default_bound_inputs(spec, p)) < 0.0


def test_variants_without_an_extremal_map():
    # each entry closes when a catalog map is shown to attain its radius
    attained = {variant for _, variant in EXTREMAL}
    assert set(VARIANTS) - attained == {
        "thm22_bohr",
        "thm23_subordination",
        "thm23_subordination_convex",
        "thm27_mobius",
        "thm29_convex_direction",
    }


def test_image_reach_pairs_are_extremal():
    # selfcheck's figure_max_modulus picks these by hand; they must stay attaining
    for name, variant in IMAGE_REACH_PAIRS:
        assert variant in MAP[name].extremal_for


def test_all_lists_exactly_the_public_names():
    # names load on first access, so resolve them all before reading vars()
    for name, source in bohrmap._SOURCE.items():
        module = importlib.import_module(f"bohrmap.{source}")
        value = getattr(bohrmap, name)
        assert value is getattr(module, name)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__
    public = {
        name for name, value in vars(bohrmap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bohrmap.__all__) == sorted(public | {"__version__"})
    assert set(bohrmap.__all__) <= set(dir(bohrmap))


# (argument, bad value, message); every entry point that takes the argument
# must refuse the value with the same words.  The r and radius rows are
# tests/test_series.py::RADIUS_ENTRY_POINTS.
BAD_PARAMS = [
    ("K", 0.5, "K must be >= 1"),
    ("K", True, "K must be >= 1"),
    ("K", np.inf, "K must be finite"),
    ("k", 0.0, "k must lie in (0, 1]"),
    ("k", 1.5, "k must lie in (0, 1]"),
    ("k", np.nan, "k must lie in (0, 1]"),
    ("k", True, "k must lie in (0, 1]"),
    ("map k", -0.1, "k must lie in [0, 1]"),
    ("map k", 1.5, "k must lie in [0, 1]"),
    ("map k", np.nan, "k must lie in [0, 1]"),
    ("map k", True, "k must lie in [0, 1]"),
    ("n", 0, "n must be an integer >= 1"),
    ("n", 1.5, "n must be an integer >= 1"),
    ("n", True, "n must be an integer >= 1"),
    ("n", False, "n must be an integer >= 1"),
    ("a", 1.0, "a must lie in (-1, 1)"),
    ("a", -1.0, "a must lie in (-1, 1)"),
    ("a", np.nan, "a must lie in (-1, 1)"),
    ("a", False, "a must lie in (-1, 1)"),
    ("a", True, "a must lie in (-1, 1)"),
    ("theta", np.nan, "theta must be finite"),
    ("theta", np.inf, "theta must be finite"),
    ("theta", True, "theta must be finite"),
    ("c", 1.5, "|c| must be <= 1"),
    ("c", np.nan, "|c| must be <= 1"),
    ("c", True, "|c| must be <= 1"),
    ("reach r", 0.0, "r must lie in (0, 1)"),
    ("reach r", 1.0, "r must lie in (0, 1)"),
    ("reach r", np.nan, "r must lie in (0, 1)"),
    ("reach r", True, "r must lie in (0, 1)"),
    ("tol", 0.0, "tol must be positive"),
    ("tol", np.nan, "tol must be positive"),
    ("tol", np.inf, "tol must be finite"),
    ("tol", True, "tol must be positive"),
    ("bound", 0.0, "bound must be positive and finite"),
    ("bound", np.nan, "bound must be positive and finite"),
    ("bound", np.inf, "bound must be positive and finite"),
    ("bound", True, "bound must be positive and finite"),
    ("margin", 0.0, "margin must be positive"),
    ("margin", np.nan, "margin must be positive"),
    ("margin", True, "margin must be positive"),
    ("epsilon", 0.0, "epsilon must be positive"),
    ("epsilon", np.nan, "epsilon must be positive"),
    ("epsilon", True, "epsilon must be positive"),
    ("tail_constant", -1.0, "tail_constant must be >= 0"),
    ("tail_constant", np.nan, "tail_constant must be >= 0"),
    ("tail_constant", np.inf, "tail_constant must be finite"),
    ("tail_constant", True, "tail_constant must be >= 0"),
    ("perturb", np.nan, "perturb must be finite"),
    ("perturb", np.inf, "perturb must be finite"),
    ("perturb", True, "perturb must be finite"),
]

HALF_PLANE = make_map(NamedMap("half_plane_analytic", order=40))
THM211 = RadiusProblem("thm211_convex")

BUILDERS = {
    "K": [
        lambda v: RadiusProblem("thm12_quasi", K=v),
        lambda v: RadiusProblem("thm23_quasi_convex", K=v),
    ],
    "k": [
        lambda v: RadiusProblem("thm24_monomial", k=v, n=1),
        lambda v: MonomialDilatation(k=v),
    ],
    "map k": [
        lambda v: NamedMap("p_k", k=v),
        lambda v: NamedMap("q_k", k=v),
    ],
    "n": [
        lambda v: RadiusProblem("thm24_monomial", k=0.5, n=v),
        lambda v: RadiusProblem("cor25_monomial", n=v),
        lambda v: MonomialDilatation(k=0.5, n=v),
    ],
    "a": [
        lambda v: MobiusDilatation(a=v),
    ],
    "theta": [
        lambda v: MonomialDilatation(k=0.5, theta=v),
    ],
    "c": [
        lambda v: monomial_schwarz(v, 1),
    ],
    "reach r": [
        lambda v: boundary_reach(NamedMap("koebe_analytic"), v),
        lambda v: boundary_reach(HALF_PLANE, v),
    ],
    "tol": [
        lambda v: solve_radius(RadiusProblem("thm11_univalent"), tol=v),
        lambda v: solve_radius(RadiusProblem("cor25_monomial", n=1), tol=v),
        lambda v: bracket_root(lambda r: r - 0.5, 0.0, 1.0, tol=v),
    ],
    "bound": [
        lambda v: verify_inequality(HALF_PLANE, THM211, bound=v),
        lambda v: sharpness_scan(HALF_PLANE, THM211, 0.01, bound=v),
        lambda v: BohrProfile("x", [0.0, 0.1], [0.0, 0.1], [0.0, 0.0], bound=v),
    ],
    "margin": [
        lambda v: verify_inequality(HALF_PLANE, THM211, margin=v),
    ],
    "epsilon": [
        lambda v: sharpness_scan(HALF_PLANE, THM211, v),
    ],
    "tail_constant": [
        lambda v: bohr_partial_sum(HALF_PLANE, 0.3, tail_constant=v),
        lambda v: verify_inequality(HALF_PLANE, THM211, tail_constant=v),
    ],
    "perturb": [
        lambda v: run_selfcheck(quick=True, perturb=v),
    ],
}


def test_every_argument_domain_has_bad_values_and_entry_points():
    tested = {name for name, _, _ in BAD_PARAMS} | {"r", "radius"}
    assert tested == set(BUILDERS) | {"r", "radius"} == {row[0] for row in _PARAM_RULES}


@pytest.mark.parametrize("name, value, message", BAD_PARAMS)
def test_parameter_domains_agree(name, value, message):
    for build in BUILDERS[name]:
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value) == message
