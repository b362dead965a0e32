"""Exact arithmetic for quadratic character sums over F_q[x].

The package computes L-polynomials of hyperelliptic discriminants three
independent ways (character sums, point counts, the two-block central-value
identity), averages central values over the full family either exhaustively
or by seeded sampling, and compares the averages against truncated Euler
product predictions with explicit tail bounds.
"""

from .asymptotics import (
    EulerConstants,
    average_leading_term,
    default_cutoff,
    euler_constants,
    first_moment_main_term,
    square_block_main_term,
    usp_moment,
    zeta_ring,
)
from .characters import chi, jacobi, jacobi_factorization, residue_symbol_prime
from .curve import PowerSums, count_points, power_sums, zeta_numerator
from .ensemble import (
    EnsembleSpec,
    MomentAccumulator,
    coprime_monic_count,
    enumerate_ensemble,
    expected_value,
    expected_value_sieved,
    first_moment,
)
from .field import PrimeField
from .lfunction import (
    LPolynomial,
    afe_central_value,
    dirichlet_coefficient,
    evaluate_center,
    functional_equation_holds,
    l_polynomial,
    rh_root_check,
    rh_root_deviation,
)
from .polyring import IrreducibleTable, irreducible_count, shared_table
from .scan import ResourceCapError, SampleMoment, moment_scan, sampled_moment
from .sqrtq import SqrtQRational
from .verify import CheckResult, run_identity_suite, suite_passed

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "EnsembleSpec",
    "EulerConstants",
    "IrreducibleTable",
    "LPolynomial",
    "MomentAccumulator",
    "PowerSums",
    "PrimeField",
    "ResourceCapError",
    "SampleMoment",
    "SqrtQRational",
    "afe_central_value",
    "average_leading_term",
    "chi",
    "coprime_monic_count",
    "count_points",
    "default_cutoff",
    "dirichlet_coefficient",
    "enumerate_ensemble",
    "euler_constants",
    "evaluate_center",
    "expected_value",
    "expected_value_sieved",
    "first_moment",
    "first_moment_main_term",
    "functional_equation_holds",
    "irreducible_count",
    "jacobi",
    "jacobi_factorization",
    "l_polynomial",
    "moment_scan",
    "power_sums",
    "residue_symbol_prime",
    "rh_root_check",
    "rh_root_deviation",
    "run_identity_suite",
    "sampled_moment",
    "shared_table",
    "square_block_main_term",
    "suite_passed",
    "usp_moment",
    "zeta_numerator",
    "zeta_ring",
]
