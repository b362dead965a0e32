"""Exact arithmetic for quadratic character sums over F_q[x].

The package computes L-polynomials of hyperelliptic discriminants three
independent ways (character sums, point counts, the two-block central-value
identity), averages central values over the full family either exhaustively
or by seeded sampling, and compares the averages against truncated Euler
product predictions with explicit tail bounds.
"""

from .asymptotics import EulerConstants, euler_constants, first_moment_main_term
from .characters import jacobi
from .curve import zeta_numerator
from .ensemble import MomentAccumulator
from .lfunction import LPolynomial, evaluate_center, l_polynomial
from .polyring import ResourceCapError
from .scan import SampleMoment, moment_scan, sampled_moment
from .sqrtq import SqrtQRational
from .verify import CheckResult, run_identity_suite

__version__ = "0.1.0"

# The supported API: the library example in README.md, the entry point behind
# each CLI subcommand, and the types they return.  Everything else is
# importable from its own module.
__all__ = [
    "CheckResult",
    "EulerConstants",
    "LPolynomial",
    "MomentAccumulator",
    "ResourceCapError",
    "SampleMoment",
    "SqrtQRational",
    "euler_constants",
    "evaluate_center",
    "first_moment_main_term",
    "jacobi",
    "l_polynomial",
    "moment_scan",
    "run_identity_suite",
    "sampled_moment",
    "zeta_numerator",
]
