"""Computing with matrices of countably infinite dimension.

Matrices are pure element oracles with structural metadata; every
infinite quantity is the stabilized limit of finite truncations, and
every limit carries a convergence report.
"""

__version__ = "0.1.0"

from .algebra import (ProductResult, add, matmul, matvec, scale, shift_diagonal,
                      trace_partial)
from .bases_orth import (OrthReport, OrthogonalRows, TransitionResult,
                         orthogonalize, transformation_matrix, transition_matrix)
from .determinant import (CauchyBinetReport, DetReport, cauchy_binet,
                          cauchy_binet_infinite, det_infinite, det_log_series,
                          det_oracle, det_truncation)
from .errors import (CertificateError, ConvergenceFailureError,
                     DependentRowsError, ExtentMismatchError,
                     GramConvergenceError, InfmatError, OracleValueError,
                     PreconditionError, SchemaError, SingularSystemError)
from .expr_dsl import EvalError, ParseError, eval_ast, parse, pretty
from .inverse_solve import (InverseReport, SolveReport, check_compatibility,
                            cramer_solve, neumann_inverse, rank_of,
                            solve_via_inverse)
from .matrix_core import (BANDED, EXPR, FINITE_SUPPORT, INFINITE,
                          DecayCertificate, DenseMatrix, Extent,
                          MatrixSpec, TruncationSchedule, banded_spec,
                          diagonal_spec, entrywise_spec, finite_support_spec,
                          identity_spec, is_finite_extent, spot_check_decay,
                          transpose, truncate, zero_spec)
from .series import (CONVERGED, DIVERGED, UNDETERMINED, ConvergencePolicy,
                     ConvergenceReport, GeometricTail, limit_of_sequence,
                     sum_series)
from .spectral import EigenPair, char_value, eigenvector_for, find_eigenvalues
