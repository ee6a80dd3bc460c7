"""Invariants across the variant and map tables, and the package's exports.

Every record of ``VARIANT_TABLE`` and ``MAP_TABLE`` is checked here, so a
new theorem or map is covered without editing this file.
"""

import importlib
import itertools
import types

import pytest

import bohrmap
from bohrmap import (
    MAP_NAMES,
    MAP_TABLE,
    VARIANT_TABLE,
    VARIANTS,
    NamedMap,
    RadiusProblem,
    closed_form_radius,
    majorant_value,
    make_map,
    resolve_name,
    resolve_variant,
    verify_inequality,
)

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
    assert record.witness_for
    witnessed = [v for v in VARIANT_TABLE if v.name in record.witness_for]
    assert len(witnessed) == len(record.witness_for)
    if any(v.bound == "d" for v in witnessed):
        assert record.distance is not None and record.distance > 0.0
    pinned = {name for name, _ in record.pins}
    assert pinned <= {name for v in witnessed for name in v.params}
    assert record.tail_constant > 0.0


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
