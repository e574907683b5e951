"""Deformed and local-fractional derivative operators.

A numerical toolkit for the family of deformed derivatives built on
prefactor-times-d/dx forms (q-deformed, Kaniadakis, Hausdorff/fractal,
conformable, Yang local-fractional), the Grunwald-Letnikov chain, their
eigenfunctions (q-exponential, kappa-exponential, stretched and
fractal-metric exponentials, Mittag-Leffler), and the parameter bridge
1 - q = (1 - zeta)/l0 connecting the q-deformed and fractal-metric pictures.

All operations are pure functions over immutable inputs and are safe to call
concurrently.
"""

from .deformed_algebra import (
    KappaParam,
    QParam,
    kappa_exp,
    kappa_log,
    q_difference,
    q_exp,
    q_log,
    q_sum,
)
from .derivative_ops import (
    Classical,
    Conformable,
    DerivativeKind,
    DiffSettings,
    GrunwaldJumarie,
    YangLFD,
    classical_derivative,
    conformable_derivative,
    evaluate_kind,
    gl_jumarie_derivative,
    hausdorff_derivative,
    hausdorff_quotient,
    jumarie_taylor_eval,
    kaniadakis_derivative,
    q_derivative,
    q_derivative_quotient,
    rl_power_rule,
    yang_lfd,
)
from .eigen_solvers import (
    EigenReport,
    integrate_ode,
    solve_hausdorff_eigen,
    solve_q_eigen,
    verify_fractional_eigen,
)
from .errors import (
    ConvergenceError,
    DefcalcError,
    DegenerateInput,
    DomainError,
    EvaluationError,
    ParseError,
    PoleError,
    StepFailure,
    UnsupportedDerivative,
)
from .function_catalog import (
    RealFunction,
    as_real_function,
    differentiate,
    evaluate,
    parse,
    to_source,
)
from .mappings import (
    MappingResult,
    SeriesExpansion,
    conformable_hausdorff_check,
    expand_hausdorff_prefactor,
    first_order_agreement,
    kappa_expansion,
    q_from_zeta,
    yang_hausdorff_check,
    zeta_from_q,
)
from .special_functions import (
    HausdorffParams,
    balankin_exp,
    gamma,
    gen_binomial,
    mittag_leffler,
    stretched_exp,
)

__version__ = "0.1.0"
