"""Exact projective-lattice calculus for arithmetic subgroups.

Computes with names for projective lattices (exact integer arithmetic,
rationals only at the parse and print edges), the groups between
congruence subgroups and their normalizers, cusps and widths, the
classification of the nine groups labeling the extended E8 diagram, the
reconstruction of that diagram from group invariants, and the
level-doubled groups with their Frame shapes and eta-quotient series.
"""

from .exact import ProjectiveMatrix, pdet, primitive_rep
from .lattice import LatticeName, ReverseName, act, hyperdistance, reduce_matrix
from .tree import HyperCircle, Thread, gamma0_index, hypercircle, is_cell, padic_projection, thread
from .groupsys import (
    Character,
    FiniteQuotient,
    GroupDescriptor,
    al_coset_representative,
    character_lambda,
    congruence_level,
    finite_quotient,
    member,
    normalizer_of_gamma0,
    schreier_generators,
)
from .cusps import CuspReport, cusp_count, cusps_of_gamma0, width_at_infinity
from .classify import Candidate, candidate_levels, check_conditions, classify
from .diagram import LabeledGraph, NODE_GROUPS, VertexData, build_graph, emit_dot, vertex_data
from .frames import (
    FRAME_SHAPES,
    FrameShape,
    IntegerPowerSeries,
    double_group,
    eta_quotient_series,
    frame_shape,
    frame_shape_invariants,
    numeric_invariance_check,
)

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "Character",
    "CuspReport",
    "FRAME_SHAPES",
    "FiniteQuotient",
    "FrameShape",
    "GroupDescriptor",
    "HyperCircle",
    "IntegerPowerSeries",
    "LabeledGraph",
    "LatticeName",
    "NODE_GROUPS",
    "ProjectiveMatrix",
    "ReverseName",
    "Thread",
    "VertexData",
    "act",
    "al_coset_representative",
    "build_graph",
    "candidate_levels",
    "character_lambda",
    "check_conditions",
    "classify",
    "congruence_level",
    "cusp_count",
    "cusps_of_gamma0",
    "double_group",
    "emit_dot",
    "eta_quotient_series",
    "finite_quotient",
    "frame_shape",
    "frame_shape_invariants",
    "gamma0_index",
    "hypercircle",
    "hyperdistance",
    "is_cell",
    "member",
    "normalizer_of_gamma0",
    "numeric_invariance_check",
    "padic_projection",
    "pdet",
    "primitive_rep",
    "reduce_matrix",
    "schreier_generators",
    "thread",
    "vertex_data",
    "width_at_infinity",
]
