"""The public surface stays free of options that lost their meaning.

Resource caps are module constants read at call time, not per-call
arguments, and a ring spec carries no field prime.  This guard walks
every public function and method of the package so that such an option
cannot come back unnoticed.
"""

import importlib
import inspect
import pkgutil

import pytest

import homdecomp
from homdecomp.cli import RingSpec

MODULES = [importlib.import_module(f"homdecomp.{info.name}")
           for info in pkgutil.iter_modules(homdecomp.__path__)]
REMOVED_PARAMETERS = {"cap", "count"}


def public_callables(module):
    """(qualified name, callable) for each public function and method defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_no_cap_or_count_parameters(module):
    found = [f"{name}({param})"
             for name, fn in public_callables(module)
             for param in inspect.signature(fn).parameters
             if param in REMOVED_PARAMETERS]
    assert found == []


def test_guard_sees_the_capped_functions():
    names = {name for module in MODULES for name, _ in public_callables(module)}
    assert {"MonomialIdeal.saturation", "monomials_between", "LocalRing.length",
            "stabilization_index", "HomSubquotient.presentation",
            "verify_colon_identity"} <= names


def test_ring_spec_has_no_prime_field():
    assert "prime" not in RingSpec._fields


def test_package_exports():
    assert homdecomp.CapExceeded is homdecomp.monomials.CapExceeded
    for name in ("LengthCapExceeded", "SearchCapExceeded", "commutant",
                 "is_decomposable", "brute_force_idempotent_oracle", "is_regular_sequence",
                 "mono_gcd"):
        assert not hasattr(homdecomp, name)
    assert not hasattr(homdecomp.MonomialIdeal, "power")


def test_hom_reads_every_module_off_one_row_pass():
    # the cell listing and the cell and row union-finds folded into hom.row_intervals
    for name in ("box_basis", "action_blocks", "row_components"):
        assert not hasattr(homdecomp.hom, name)


def test_test_only_helpers_live_in_the_tests():
    # no module of the package calls them; tests/conftest.py holds them
    assert not hasattr(homdecomp.rings, "gamma_monomial_basis")
    assert not hasattr(homdecomp.rings.LocalRing, "is_zero_element")
    assert not hasattr(homdecomp.cli, "serialize_ring_spec")
    assert not hasattr(homdecomp.theorems, "cm_power_pairs")
    assert not hasattr(homdecomp.theorems, "cm_corpus")
    assert not hasattr(homdecomp.rings, "socle_generators")
    assert not hasattr(homdecomp, "socle_generators")
