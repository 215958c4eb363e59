"""Zeta functions of hypersurfaces over finite fields.

The congruence pipelines produce det(I - M*T) for explicitly constructed
semilinear operators on finite-dimensional spaces; reduced mod p or p^m
these determine the zeta series to any truncation order.  The univariate
(zero-dimensional) case is exact and doubles as a factoring engine.  A
brute-force oracle recomputes everything independently for verification.
"""

from .errors import (CoefficientOutsidePrimeField, CompositeP, ConstantInput,
                     EmptyBasis, InternalCheckError, InvariantViolation,
                     LimitError, MultivariateInput,
                     NonIntegralCoefficient, NonIntegralSolution, NotMonic,
                     ParseError, PreconditionError, QTooLarge,
                     ReducibleModulus, RingNotField, SizeLimit,
                     StabilityViolation, TooLarge, UnknownVariable,
                     ZetaError, ZeroConstantTerm)
from .factor import admissible_basis, factorize
from .fq import make_field, make_galois_ring, split_prime_power
from .hyper import (TruncatedSeries, hyper_matrix_mod_p, hyper_matrix_mod_pm,
                    rd_basis, rmd_basis, torus_zeta, zeta_mod_p, zeta_mod_pm)
from .linalg import SquareMatrix, charpoly_reverse, kernel_basis
from .oracle import (count_points, count_vector, irreducibles_up_to,
                     trial_factorize, zeta_coeffs_exact)
from .poly import Factorization, SparsePoly, render_poly
from .zerodim import (FactoredZeta, OperatorKind, congruence_charpoly,
                      degree_profile, op_matrix, zerodim_zeta)

__version__ = "0.1.0"

__all__ = [
    "CoefficientOutsidePrimeField", "CompositeP", "ConstantInput",
    "EmptyBasis", "FactoredZeta", "Factorization",
    "InternalCheckError", "InvariantViolation", "LimitError",
    "MultivariateInput",
    "NonIntegralCoefficient", "NonIntegralSolution", "NotMonic",
    "OperatorKind", "ParseError",
    "PreconditionError", "QTooLarge", "ReducibleModulus", "RingNotField",
    "SizeLimit", "SparsePoly", "SquareMatrix",
    "StabilityViolation", "TooLarge", "TruncatedSeries", "UnknownVariable",
    "ZeroConstantTerm", "ZetaError", "admissible_basis", "charpoly_reverse",
    "congruence_charpoly", "count_points", "count_vector", "degree_profile",
    "factorize", "hyper_matrix_mod_p", "hyper_matrix_mod_pm",
    "irreducibles_up_to", "kernel_basis", "make_field", "make_galois_ring",
    "op_matrix", "rd_basis", "render_poly", "rmd_basis", "split_prime_power",
    "torus_zeta", "trial_factorize", "zerodim_zeta", "zeta_coeffs_exact",
    "zeta_mod_p", "zeta_mod_pm", "__version__",
]
