"""Strengthening 0/1 relaxations with Boolean formulas, exactly.

The package lifts a rational relaxation Q of a 0/1 set through a formula
phi: literals restrict to faces, conjunctions intersect, disjunctions take
convex hulls of unions, all as explicit extended formulations over exact
rationals.  It ships an exact LP solver with verified certificates, vertex
and facet enumeration in small dimension, pitch and notch measures with
closure oracles, instance generators, verification checks and a CLI.
"""

from .formula import (
    Formula,
    Kind,
    ParseError,
    PointSet01,
    and_all,
    const,
    covering_cnf,
    enumerate_set,
    land,
    lit,
    lnot,
    lor,
    minterm_dnf,
    or_all,
    parse,
    point_set,
    reduce,
    substitute,
    threshold_formula,
)
from .hull import FacetList, HullCheck, equals_hull, facets_of_points, lift_hrep, vertices_of_hrep
from .lpsolve import (
    InternalError,
    LpOutcome,
    UnboundedError,
    contains_point,
    emptiness,
    is_empty,
    optimize,
    optimize_rows,
    proves_valid,
)
from .measures import (
    ClosureQuery,
    ClosureReport,
    StandardFormInequality,
    Violation,
    closure_violation,
    notch_of,
    notch_of_set,
    pitch_of,
    to_standard_form,
    verify_closure,
)
from .polytope import (
    ExtendedFormulation,
    LiftReport,
    balas_union,
    cube,
    empty_formulation,
    face_restrict,
    from_hrep,
    from_text,
    intersect,
    iterate_lift,
    lift,
    to_text,
    with_xspace_rows,
)

__version__ = "0.1.0"
