"""Exact graded-isomorphism decisions for upper block triangular matrix algebras.

The objects: a finite group G, a graded division algebra D = K^sigma[H] for a
subgroup H <= G and a 2-cocycle sigma with root-of-unity values, and a graded
flag presented by block sizes and a degree tuple.  The algebra of flag
endomorphisms is G-graded upper block triangular; this package builds those
algebras exactly and decides graded isomorphism and equivalence, emitting
machine-checkable witnesses for YES and certificates for NO.

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package re-exports them all.  ``flagiso.io`` and
``flagiso.cli`` stay namespaced.
"""

from . import algebras, cocycles, division, errors, groups, iso, modlinalg, presentations, tables
from .algebras import *  # noqa: F403
from .cocycles import *  # noqa: F403
from .division import *  # noqa: F403
from .errors import *  # noqa: F403
from .groups import *  # noqa: F403
from .iso import *  # noqa: F403
from .modlinalg import *  # noqa: F403
from .presentations import *  # noqa: F403
from .tables import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({
    *algebras.__all__, *cocycles.__all__, *division.__all__, *errors.__all__, *groups.__all__,
    *iso.__all__, *modlinalg.__all__, *presentations.__all__, *tables.__all__,
})
