"""Every public function checks its parameters through their class: an invalid
q, kappa, zeta, l0, alpha, h or n_terms is that class's ValueError wherever it
enters."""

import math

import pytest

from defcalc import (
    HausdorffParams,
    conformable_derivative,
    conformable_hausdorff_check,
    gl_jumarie_derivative,
    hausdorff_quotient,
    kaniadakis_derivative,
    kappa_expansion,
    q_derivative,
    q_derivative_quotient,
    solve_q_eigen,
    yang_hausdorff_check,
    yang_lfd,
    zeta_from_q,
)

nan, inf = math.nan, math.inf
Q, KAPPA, ZETA, L0 = ("q must be finite", "kappa must be finite", "zeta must be finite",
                      "l0 must be positive and finite")
GJ = "GrunwaldJumarie requires"

# id -> (call, the start of the class's message)
INVALID_CALLS = {
    "q_derivative q=inf": (lambda: q_derivative("x", 1.0, inf), Q),
    "q_derivative_quotient q=nan": (lambda: q_derivative_quotient("x", 1.0, nan), Q),
    "kaniadakis_derivative kappa=nan": (lambda: kaniadakis_derivative("x", 1.0, nan), KAPPA),
    "hausdorff_quotient zeta=nan": (lambda: hausdorff_quotient("x", 1.0, nan), ZETA),
    "conformable_derivative alpha=nan":
        (lambda: conformable_derivative("x", 1.0, nan), "Conformable requires 0 < alpha <= 1"),
    "conformable_derivative alpha=1.5":
        (lambda: conformable_derivative("x", 1.0, 1.5), "Conformable requires 0 < alpha <= 1"),
    "gl_jumarie_derivative n_terms=0":
        (lambda: gl_jumarie_derivative("x", 1.0, 0.5, 0.1, n_terms=0), GJ + " N >= 1"),
    "gl_jumarie_derivative n_terms=-3":
        (lambda: gl_jumarie_derivative("x", 1.0, 0.5, 0.1, n_terms=-3), GJ + " N >= 1"),
    "gl_jumarie_derivative alpha=nan":
        (lambda: gl_jumarie_derivative("x", 1.0, nan, 0.1), GJ + " 0 < alpha <= 1"),
    "gl_jumarie_derivative h=inf":
        (lambda: gl_jumarie_derivative("x", 1.0, 0.5, inf), GJ + " finite h > 0"),
    "yang_lfd alpha=nan":
        (lambda: yang_lfd("x", 1.0, nan, HausdorffParams(0.5)), "YangLFD requires 0 < alpha"),
    "zeta_from_q q=inf": (lambda: zeta_from_q(inf, 1.0), Q),
    "zeta_from_q l0=0": (lambda: zeta_from_q(0.5, 0.0), L0),
    "kappa_expansion kappa=nan": (lambda: kappa_expansion(nan, 4), KAPPA),
    "solve_q_eigen q=nan": (lambda: solve_q_eigen(nan, (0.0, 1.0), 11), Q),
    "conformable_hausdorff_check l0=0":
        (lambda: conformable_hausdorff_check(0.5, 0.0, "x", 1.0), L0),
    "conformable_hausdorff_check l0=inf":
        (lambda: conformable_hausdorff_check(0.5, inf, "x", 1.0), L0),
    "yang_hausdorff_check alpha=nan":
        (lambda: yang_hausdorff_check(nan, HausdorffParams(0.5), "x", 1.0), ZETA),
}


@pytest.mark.parametrize("call,message", INVALID_CALLS.values(), ids=INVALID_CALLS.keys())
def test_invalid_parameter_is_a_value_error(call, message):
    with pytest.raises(ValueError, match="^" + message):
        call()
