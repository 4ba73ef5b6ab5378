"""Exact structure-constant engine for pivotal quasi-Hopf algebras.

Computes integrals, cointegrals, symmetrised cointegrals, and the induced
modified traces on projective modules, entirely over exact cyclotomic
number fields.
"""

from quasihopf.algcore import AlgebraData, LinearForm, TensorElement
from quasihopf.exactmath import Scalar, SparseMatrix, format_scalar, parse_scalar
from quasihopf.qha import PivotalData, QuasiHopfAlgebra, check_axioms

__all__ = [
    "AlgebraData",
    "LinearForm",
    "PivotalData",
    "QuasiHopfAlgebra",
    "Scalar",
    "SparseMatrix",
    "TensorElement",
    "check_axioms",
    "format_scalar",
    "parse_scalar",
]
__version__ = "0.1.0"
