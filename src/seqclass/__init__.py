"""Optimal error exponents and universal two-phase sequential tests for
binary classification with training sequences.

The library computes, for a pair of distributions (P0, P1), sampling ratios
(alpha, beta) and a type-I budget family lambda, the optimal type-II error
exponents of four observation setups (fixed-length, two semi-sequential
variants, fully sequential), and simulates the universal two-phase test
that achieves them.
"""

from .divergence import (
    bht_tradeoff,
    gjs_value,
    kl,
    renyi_frac,
    weighted_join,
)
from .exponents import (
    ConstantLambda,
    ExponentReport,
    ProblemInstance,
    ScaledRenyiLambda,
    e_fix,
    g1,
    kappa,
    lambda_eval,
    mu,
    nu,
    renyi_term,
    report,
)
from .montecarlo import ExponentFit, TrialReport, estimate_exponent, run_trials
from .optimizer import SearchConfig, SearchResult, min_simplex_pair
from .simplex import grid_array, sample_iid, stream_seed
from .testbench import (
    HypothesisModel,
    SetupKind,
    TestOutcome,
    eta_n,
    make_model,
    stream_sizes,
    two_phase_test,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantLambda",
    "ExponentFit",
    "ExponentReport",
    "HypothesisModel",
    "ProblemInstance",
    "ScaledRenyiLambda",
    "SearchConfig",
    "SearchResult",
    "SetupKind",
    "TestOutcome",
    "TrialReport",
    "bht_tradeoff",
    "e_fix",
    "estimate_exponent",
    "eta_n",
    "g1",
    "gjs_value",
    "grid_array",
    "kappa",
    "kl",
    "lambda_eval",
    "make_model",
    "min_simplex_pair",
    "mu",
    "nu",
    "renyi_frac",
    "renyi_term",
    "report",
    "run_trials",
    "sample_iid",
    "stream_seed",
    "stream_sizes",
    "two_phase_test",
    "weighted_join",
]
