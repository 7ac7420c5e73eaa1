"""Dilogarithm identities on small hyperbolic surfaces.

Evaluate and verify the closed-form identities that express pi^2/2 (and the
classical 1/2) as sums of Rogers-dilogarithm brackets over the simple
length spectrum of a hyperbolic one-holed or once-punctured torus, and the
matching identities for four-holed spheres with equal boundary lengths.

Modules:
    dilog       Rogers/classical dilogarithm and the lasso combination
    pants       hyperbolic trigonometry of three-holed spheres
    torus       trace and Fenchel-Nielsen coordinates for one-holed tori
    curves      enumeration of simple closed geodesics (Markov/Farey tree)
    identities  term functions, series evaluation, identity reports
    cli         command-line front end (verify/spectrum/terms/sweep/selftest)
"""

from .curves import (
    GeodesicRecord,
    Slope,
    brute_force_trace,
    enumerate_geodesics,
    markov_child,
    reduce_to_minimal,
    spectrum_columns,
)
from .dilog import lasso, li2, rogers
from .errors import (
    DomainError,
    NoRealStructureError,
    NonHyperbolicError,
    ResourceLimitError,
    SingularInputError,
)
from .identities import (
    IdentityKind,
    IdentityReport,
    compensated_sum,
    evaluate,
    identity_term,
    iter_terms,
    pants_sum_term,
    pants_sum_term_via_complement,
    quasi_pants_term,
    tail_estimate,
    term_cusped,
    term_foursphere_cusped,
    term_foursphere_ortho,
    term_foursphere_simple,
    term_mcshane,
    term_one_holed,
    term_ortho_torus,
    term_trace_squared,
    torus_contribution_partial,
)
from .pants import (
    Orthogeodesics,
    PantsGeometry,
    foursphere_ortho,
    guard_threshold,
    pants_geometry,
    torus_ortho,
)
from .torus import (
    FenchelNielsen,
    TraceTriple,
    boundary_length,
    fenchel_nielsen_matrices,
    from_fenchel_nielsen,
    from_traces,
    length_from_trace,
    trace_triple,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FenchelNielsen",
    "GeodesicRecord",
    "IdentityKind",
    "IdentityReport",
    "NoRealStructureError",
    "NonHyperbolicError",
    "Orthogeodesics",
    "PantsGeometry",
    "ResourceLimitError",
    "SingularInputError",
    "Slope",
    "TraceTriple",
    "boundary_length",
    "brute_force_trace",
    "compensated_sum",
    "enumerate_geodesics",
    "evaluate",
    "fenchel_nielsen_matrices",
    "foursphere_ortho",
    "from_fenchel_nielsen",
    "from_traces",
    "guard_threshold",
    "identity_term",
    "iter_terms",
    "lasso",
    "length_from_trace",
    "li2",
    "markov_child",
    "pants_geometry",
    "pants_sum_term",
    "pants_sum_term_via_complement",
    "quasi_pants_term",
    "reduce_to_minimal",
    "rogers",
    "spectrum_columns",
    "tail_estimate",
    "term_cusped",
    "term_foursphere_cusped",
    "term_foursphere_ortho",
    "term_foursphere_simple",
    "term_mcshane",
    "term_one_holed",
    "term_ortho_torus",
    "term_trace_squared",
    "torus_contribution_partial",
    "torus_ortho",
    "trace_triple",
]
