"""Exact projective-lattice calculus for arithmetic subgroups.

Computes with names for projective lattices (exact integer arithmetic,
rationals read and printed as integer pairs), the groups between
congruence subgroups and their normalizers, cusps and widths, the
classification of the nine groups labeling the extended E8 diagram, the
reconstruction of that diagram from group invariants, and the
level-doubled groups with their Frame shapes and eta-quotient series.

The exports load on first access (PEP 562): ``import plattice`` imports
no submodule, and reading ``plattice.X`` imports the module that defines
``X`` the first time.  ``plattice.classify`` is always the function, also
after the submodule ``plattice.classify`` has been imported.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# home module -> the names it exports through the package
_HOMES = {
    "arith": ("gamma0_index",),
    "exact": ("ProjectiveMatrix", "pdet", "primitive_rep"),
    "lattice": ("LatticeName", "act", "hyperdistance", "reduce_matrix"),
    "tree": ("HyperCircle", "Thread", "hypercircle", "is_cell", "padic_projection", "thread"),
    "descriptors": (
        "GroupDescriptor",
        "NODE_GROUPS",
        "congruence_level",
        "normalizer_of_gamma0",
        "width_at_infinity",
    ),
    "groupsys": ("FiniteQuotient", "al_coset_representative", "finite_quotient", "member"),
    "cusps": ("CuspReport", "cusps_of_gamma0"),
    "classify": ("Candidate", "candidate_levels", "check_conditions", "classify"),
    "diagram": ("LabeledGraph", "VertexData", "build_graph", "emit_dot", "schreier_generators", "vertex_data"),
    "frames": (
        "FRAME_SHAPES",
        "FrameShape",
        "IntegerPowerSeries",
        "eta_quotient_series",
        "frame_shape",
        "numeric_invariance_check",
    ),
    "doubling": ("double_group",),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is not None:
        value = getattr(import_module("." + home, __name__), name)
    elif name in _HOMES:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing a submodule binds it on the package; an export of the
        # same name (the function ``classify``) keeps the name instead
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
