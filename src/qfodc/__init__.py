"""Exact computer-algebra workbench for bicovariant first-order differential
calculi on the quantum groups SL_q(N) and Sp_q(2n)."""

from .coordalg import CoordElem, Corep, YoungWeight, weyl_dim
from .cyclotomic import Zeta, admissible_zeta, all_admissible
from .dual import Functional, Workspace
from .fodc import Calculus, QuantumLieAlgebra, central_element, classify, quantum_lie
from .rmat import build_r
from .scalar import FieldConfig, ONE, Scalar, ZERO, parse_scalar

__all__ = [
    "Calculus",
    "CoordElem",
    "Corep",
    "FieldConfig",
    "Functional",
    "ONE",
    "QuantumLieAlgebra",
    "Scalar",
    "Workspace",
    "YoungWeight",
    "ZERO",
    "Zeta",
    "admissible_zeta",
    "all_admissible",
    "build_r",
    "central_element",
    "classify",
    "parse_scalar",
    "quantum_lie",
    "weyl_dim",
]
__version__ = "0.1.0"
