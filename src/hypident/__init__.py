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

from . import curves, dilog, errors, identities, pants, torus
from .curves import *  # noqa: F403
from .dilog import *  # noqa: F403
from .errors import *  # noqa: F403
from .identities import *  # noqa: F403
from .pants import *  # noqa: F403
from .torus import *  # noqa: F403

__version__ = "0.1.0"

# each module's `__all__` is the one list of its public names
__all__ = [
    *curves.__all__, *dilog.__all__, *errors.__all__,
    *identities.__all__, *pants.__all__, *torus.__all__,
]
