"""Bound states of the radial Dirac-Coulomb problem by ladder operators.

The closed-form solution lives in `channels` (quantum numbers and energies),
`ladder` (the operator algebra acting on coefficient vectors on the
orthonormal Laguerre functions) and `radial` (assembly of the physical two-component wavefunction).
`oracle` re-derives everything numerically: high-order quadrature for norms
and inner products, direct substitution into the coupled first-order system,
and a two-sided shooting eigensolver that knows nothing about the algebra.
`verify` bundles both sides into pass/fail suites, `cli` exposes the lot.

The public names are each module's `__all__`, republished here; the package's
own `__all__` is their union.  scipy loads on the first shot, and mpmath with
the first extended-precision number, not on import.
"""

__version__ = "0.1.0"

from . import channels, errors, ladder, oracle, radial, report, verify
from .channels import *
from .errors import *
from .ladder import *
from .oracle import *
from .radial import *
from .report import *
from .verify import *

__all__ = ["__version__"] + [
    name for module in (channels, errors, ladder, oracle, radial, report, verify)
    for name in module.__all__]
