"""The universal two-phase sequential test and the fixed-length test,
instantiated for the three sequential classification setups.

A classification trial observes three sequences: the testing sequence X
(law P0 or P1, unknown which) and two training sequences T0 ~ P0, T1 ~ P1.
A setup declares which sequences are fixed-length and which keep growing,
by arranging them in an order where the first `ell` blocks are fixed:

* Semi1     — order (T0, T1, X), ell = 2: training fixed, testing sequential
* Semi2     — order (X, T0, T1), ell = 1: testing fixed, training sequential
* FullySeq  — order (T0, T1, X), ell = 0: everything sequential
* FixedLength — no stopping time; a single n-sample decision

The test looks at the empirical tuple at time n-1.  If it is eta_n-close to
either hypothesis class it stops and decides by the sign of g1; otherwise
it defers to time n^2 where a fixed-length rule with n-weighted sequential
blocks (g_n) decides.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import divergence as dv
from .exponents import ConstantLambda, g1, lambda_matrix
from .simplex import empirical, grid_array


class SetupKind(Enum):
    FixedLength = "fixed"
    Semi1 = "semi1"
    Semi2 = "semi2"
    FullySeq = "fullyseq"


def eta_n(n, alpha, beta, d):
    """Typicality margin for the classification lambda-sets at time n-1.

    [(d+2)*log2 n + d*log2(ceil(alpha*n)+1) + d*log2(ceil(beta*n)+1)] / (n-1).
    Counts the type classes the union bound must pay for; vanishes as n grows.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return (
        (d + 2) * math.log2(n)
        + d * math.log2(math.ceil(alpha * n) + 1)
        + d * math.log2(math.ceil(beta * n) + 1)
    ) / (n - 1)


@dataclass(frozen=True)
class TestOutcome:
    decision: int
    tau: int
    phase: str  # "early" | "late" | "fixed"
    capped: bool = False


@dataclass(frozen=True)
class HypothesisModel:
    """Evaluators the generic two-phase engine needs.

    Q-hat tuples are given in setup order.  dist_to_H0/H1 are the weighted
    KL distances to the hypothesis classes, row by row over tuples of
    (T, d) stacks; gn_at is the late-phase decision score (negative =
    decide 0).
    """

    setup: SetupKind
    inst: object
    ell: int
    alphas: tuple  # per-block sampling ratios, setup order
    dist_to_H0: Callable
    dist_to_H1: Callable
    gn_at: Callable
    eta: Callable  # n -> threshold


def _blocks_in_setup_order(setup):
    """Indices of (T0, T1, X) within the setup's block ordering."""
    if setup is SetupKind.Semi2:
        return 1, 2, 0  # order is (X, T0, T1)
    return 0, 1, 2  # order is (T0, T1, X)


def make_model(setup, inst):
    if setup is SetupKind.FixedLength:
        raise ValueError("FixedLength has no sequential model; use fixed_length_test")
    a, b = inst.alpha, inst.beta
    i0, i1, ix = _blocks_in_setup_order(setup)
    if setup is SetupKind.Semi2:
        ell, alphas = 1, (1.0, a, b)
    elif setup is SetupKind.Semi1:
        ell, alphas = 2, (a, b, 1.0)
    else:
        ell, alphas = 0, (a, b, 1.0)

    def dist_to_H0(tup):
        return dv.gjs_rows(tup[i0], tup[ix], a)

    def dist_to_H1(tup):
        return dv.gjs_rows(tup[i1], tup[ix], b)

    # late-phase weights: sequential blocks count n-fold
    def gn_at(tup, n):
        w = [alphas[k] * (1.0 if k < ell else float(n)) for k in range(3)]
        w0, w1, wx = w[i0], w[i1], w[ix]
        if isinstance(inst.lam, ConstantLambda):
            # the P1' slot collapses onto the T1 type; the P0' slot joins
            # the T0 and X types with their late-phase weights
            val, _ = dv.weighted_join_min(w0, tup[i0], wx, tup[ix])
            return val - inst.lam.lambda0
        return _gn_generic(tup[ix], tup[i0], tup[i1], wx, w0, w1, inst)

    return HypothesisModel(
        setup=setup,
        inst=inst,
        ell=ell,
        alphas=alphas,
        dist_to_H0=dist_to_H0,
        dist_to_H1=dist_to_H1,
        gn_at=gn_at,
        eta=lambda n: eta_n(n, a, b, inst.d),
    )


def _gn_generic(Q, Q0, Q1, wx, w0, w1, inst, k=200):
    """Grid evaluation of the late-phase score for non-constant lambda:
    min over (P0', P1') of wx*KL(Q||P0') + w0*KL(Q0||P0') + w1*KL(Q1||P1')
    minus lambda(P0', P1')."""
    pg = grid_array(inst.d, k, eps=inst.eps)
    lam = lambda_matrix(inst.lam, pg, pg, inst.beta)
    avec = (wx * dv.kl_matrix(Q[None, :], pg) + w0 * dv.kl_matrix(Q0[None, :], pg))[0]
    bvec = w1 * dv.kl_matrix(Q1[None, :], pg)[0]
    return float((avec[:, None] + bvec[None, :] - lam).min())


def _decide_by_g1(Q, Q0, Q1, inst, gjs0=None):
    """Decide 0 where the tuple scores g1 < 0 (ties go to 1), one decision
    per row of the (T, d) stacks.

    Under a constant budget g1 is GJS(Q0||Q, alpha) - lambda0 over all rows
    at once (gjs0 passes that GJS when it is already known).  Otherwise g1
    is solved row by row: stacking the rows into g1_batch can change the
    BLAS rounding of its matrix products.
    """
    if isinstance(inst.lam, ConstantLambda):
        if gjs0 is None:
            gjs0 = dv.gjs_rows(Q0, Q, inst.alpha)
        g = gjs0 - inst.lam.lambda0
    else:
        g = np.array([g1(q, q0, q1, inst) for q, q0, q1 in zip(Q, Q0, Q1)], dtype=np.float64)
    return np.where(g < 0, 0, 1)


def fixed_length_test(Phat, P0hat, P1hat, inst):
    """Decide 0 iff the empirical tuple scores g1 < 0 (ties go to 1).

    Takes one tuple of distributions and returns an int, or (T, d) stacks
    of tuples and returns one decision per row.
    """
    dec = _decide_by_g1(np.atleast_2d(Phat), np.atleast_2d(P0hat), np.atleast_2d(P1hat), inst)
    return dec if np.ndim(Phat) == 2 else int(dec[0])


def early_phase(tup, n, model):
    """The early-phase rule at time n-1 over a tuple of (T, d) type stacks
    in setup order.  Returns (stop, decision), two length-T arrays.

    A row stops when it lies eta_n-close to either hypothesis class.  Inside
    the H1-typical shell the sign of g1 decides (overlaps with the H0 shell
    resolve by the sign as well); in the H0 shell alone the decision is 0.
    """
    i0, i1, ix = _blocks_in_setup_order(model.setup)
    eta = model.eta(n)
    d0 = model.dist_to_H0(tup)
    d1 = model.dist_to_H1(tup)
    stop = (d0 < eta) | (d1 < eta)
    decision = np.zeros(stop.size, dtype=np.intp)
    shell = np.flatnonzero(d1 < eta)
    decision[shell] = _decide_by_g1(
        tup[ix][shell], tup[i0][shell], tup[i1][shell], model.inst, gjs0=d0[shell]
    )
    return stop, decision


def _type_of(stream, upto, d):
    if len(stream) < upto:
        raise ValueError("stream exhausted: needs %d samples, has %d" % (upto, len(stream)))
    return empirical(stream[:upto], d).dist


def two_phase_test(streams, n, model, alphas=None, ell=None, late_cap=None):
    """Run one two-phase sequential classification trial.

    streams: three integer index sequences in setup order; sequential blocks
    must be able to supply ceil(alpha_i * n^2) samples (or the cap), fixed
    blocks their fixed allocation.  Returns a TestOutcome.
    """
    inst = model.inst
    d = inst.d
    alphas = model.alphas if alphas is None else alphas
    ell = model.ell if ell is None else ell
    if n < 2:
        raise ValueError("n must be >= 2")

    def counts_at(k_seq):
        out = []
        for i, a in enumerate(alphas):
            base = n if i < ell else k_seq
            out.append(int(math.ceil(a * base)))
        return out

    early_counts = counts_at(n - 1)
    tup = tuple(_type_of(streams[i], early_counts[i], d)[None, :] for i in range(3))
    stop, decision = early_phase(tup, n, model)
    if stop[0]:
        return TestOutcome(decision=int(decision[0]), tau=n - 1, phase="early")

    late = n * n
    capped = late_cap is not None and late_cap < late
    if capped:
        late = late_cap
    late_counts = counts_at(late)
    tup2 = tuple(_type_of(streams[i], late_counts[i], d) for i in range(3))
    decision = 0 if model.gn_at(tup2, n) < 0 else 1
    return TestOutcome(decision=decision, tau=late, phase="late", capped=capped)
