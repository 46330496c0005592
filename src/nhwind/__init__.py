"""Winding numbers and finite-size spectra of non-Hermitian two-band
lattice models.

The loop side tracks one energy branch around its true closure period
(two Brillouin zones when the bands braid), integrates the
biorthogonal Berry connection in an explicit gauge, and
compares the per-loop winding against per-zone normalizations and
per-band segment windings.  The chain side builds the matching finite
lattices and quantifies the skin effect: boundary-driven localization,
spectral collapse toward the real axis, and the loss of left/right
biorthogonality at finite precision.
"""
from . import berry, bloch, lattice
from .bloch import *  # noqa: F403
from .berry import *  # noqa: F403
from .lattice import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is its list of public names; the package
# re-exports them, and this list is their union.
__all__ = [*bloch.__all__, *berry.__all__, *lattice.__all__, "__version__"]
