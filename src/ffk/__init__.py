"""Exact intersection theory for special fibers of minimal regular Fermat models.

Builds the component configuration at primes dividing an odd squarefree
composite exponent N, verifies the exact intersection-theoretic identities it
satisfies, and assembles the upper/lower bounds for the arithmetic
self-intersection of the dualizing sheaf.
"""

from .bounds import (
    alpha,
    beta_sp_closed,
    bound_report,
    euler_phi,
    factor_odd_squarefree,
    genus_formula,
    q_np,
)
from .divisors import (
    LambdaNu,
    beta_s,
    g_s,
    lambda_nu,
    per_prime_geometric,
    semipos_check,
    u_s,
    u_s_probe,
    v_divisor,
    v_s,
)
from .errors import (
    CapExceeded,
    FfkError,
    MathContractError,
    NoSolutionError,
    ParameterError,
)
from .fiber import (
    CheckResult,
    FiberConfig,
    QDivisor,
    canonical_pair,
    pair,
    validate,
)
from .model import (
    FermatLabel,
    FermatModel,
    FermatParams,
    build_config,
    transversality_check,
)
from .polyarith import (
    capital_psi,
    double_root_count,
    fermat_split_check,
    psi_diag,
    psi_poly,
)

__version__ = "0.1.0"
