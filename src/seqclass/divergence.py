"""Closed-form divergences in bits, their minimizers, the binary
hypothesis-testing trade-off solver, and the two kernels every Lagrangian
of the package shares: the one tilt (`tilt`), which gives each block's
minimiser at a multiplier, and the one multiplier search.

Each divergence has one kernel over row stacks (kl, weighted_join,
renyi_matrix); a validated call on one 1-D pair is its one-row case.
Every sum over the alphabet is taken left to right (`ordered_sum`), and no
matrix product is taken, so a matrix cell holds the bits of its 1 x 1 call.
Conventions: 0*log(0/p) = 0, and q(x) > 0 = p(x) makes D(Q||P) +inf as a
value (never an exception or a warning) so feasibility filters can compare
it.  All returned values are base-2; accumulation happens in natural log
with one final conversion.
"""

import math

import numpy as np

from .simplex import as_dist

LN2 = np.log(2.0)

#: the duality gap, per unit of (1 + value), at which a one-cell multiplier
#: search stops, and the step at which `exponents._join_fixed_point` stops
CELL_TOL = 1e-15


def kl(Q, P):
    """KL divergence D(Q||P) in bits.

    One pair of 1-D distributions is validated and gives a float.  Row
    stacks give D(Q_i||P_i) for each row as an array; either side may be a
    single row, which is paired with every row of the other.
    """
    if np.ndim(Q) == 1 and np.ndim(P) == 1:
        Q, P = _pair(Q, P, ("Q", "P"))
        return float(_kl_sum(Q[None, :], P[None, :])[0])
    return _kl_sum(np.atleast_2d(Q), np.atleast_2d(P))


def weighted_join(a, P, b, Q):
    """min_V a*KL(P||V) + b*KL(Q||V) in bits, attained at the weighted
    mixture M = (a*P + b*Q)/(a+b): the value is a*KL(P||M) + b*KL(Q||M).

    One pair of 1-D distributions, with weights 0 < a, b < inf, is
    validated and gives a float; row stacks give one value per row, as in
    kl.
    """
    if np.ndim(P) == 1 and np.ndim(Q) == 1:
        P, Q = _pair(P, Q, ("P", "Q"))
        _check_weights(a=a, b=b)
        return float(weighted_join(a, P[None, :], b, Q[None, :])[0])
    P = np.atleast_2d(P)
    Q = np.atleast_2d(Q)
    M = (a * P + b * Q) / (a + b)
    return a * _kl_sum(P, M) + b * _kl_sum(Q, M)


def gjs_value(P, Q, alpha):
    """Generalized Jensen-Shannon divergence with weight alpha, in bits:
    the weighted join with weights (alpha, 1)."""
    return weighted_join(alpha, P, 1.0, Q)


def _kl_sum(Q, P):
    """Row-wise D(Q_i||P_i) over two row stacks that broadcast, in bits.

    The masked terms Q*ln(Q/P) are summed left to right; q > 0 = p gives
    +inf.
    """
    if Q.shape != P.shape:
        Q, P = np.broadcast_arrays(Q, P)
    mask = Q > 0
    terms = np.zeros(Q.shape)
    with np.errstate(divide="ignore"):
        terms[mask] = Q[mask] * np.log(Q[mask] / P[mask])
    return ordered_sum(terms.T) / LN2


def ordered_sum(parts):
    """parts[0] + parts[1] + ..., left to right: the order of every sum
    over the alphabet, and numpy's own for a vector shorter than 8."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _pair(X, Y, names):
    X = as_dist(X, names[0])
    Y = as_dist(Y, names[1])
    if X.size != Y.size:
        raise ValueError("dimension mismatch")
    return X, Y


def _check_weights(**weights):
    for name, w in weights.items():
        if not 0.0 < w < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {w}")


def kl_matrix(Q, P):
    """(N,M) matrix of D(Q_i||P_j) in bits; P must have full support rows.

    Stacks (..., N, d) and (..., M, d) whose leading axes broadcast give
    one (N, M) matrix per stack entry.  Each cell is a left-to-right sum
    over the alphabet of products of its two rows (`_cell_sums`), so its
    bits do not depend on the stack.
    """
    Q = np.atleast_2d(Q)
    P = np.atleast_2d(P)
    ent = ordered_sum(np.moveaxis(Q * np.log(np.where(Q > 0, Q, 1.0)), -1, 0))  # sum_x q log q
    with np.errstate(divide="ignore"):
        cross = _cell_sums(Q, np.log(P))  # (..., N, M) of sum_x q_i log p_j
    return (ent[..., None] - cross) / LN2


def renyi_matrix(Prows, Qrows, alpha):
    """(N,M) matrix of the Renyi value of (P_i, Q_j) with weight alpha, in bits:
        min_V alpha*KL(V||P_i) + KL(V||Q_j)
          = -(1+alpha) * log2 sum_x P_i(x)^(alpha/(1+alpha)) Q_j(x)^(1/(1+alpha)).
    Rows must have full support.  Stacks with leading batch axes give one
    matrix per stack entry, and each cell is a left-to-right sum over the
    alphabet of products of its two rows, as in kl_matrix.
    """
    w = alpha / (1.0 + alpha)
    z = _cell_sums(np.atleast_2d(Prows) ** w, np.atleast_2d(Qrows) ** (1.0 - w))
    return -(1.0 + alpha) * np.log(z) / LN2


def _cell_sums(X, Y):
    """(..., N, M) of sum_x X_i(x) * Y_j(x) over stacks (..., N, d) and
    (..., M, d), summed left to right: a cell's bits follow from its two
    rows alone, never from the shape of the stack."""
    X = X[..., :, None, :]
    Y = Y[..., None, :, :]
    acc = X[..., 0] * Y[..., 0]
    term = np.empty_like(acc)
    for x in range(1, X.shape[-1]):
        np.multiply(X[..., x], Y[..., x], out=term)
        acc += term
    return acc


def tilt(targets, refs, rho):
    """Normalised tilts z proportional to exp((1 - rho)*target + rho*ref)
    over the alphabet axis -2 of log stacks (..., d, K) that broadcast: the
    minimiser of KL(z||target) + s*KL(z||ref) at rho = s/(1+s), for one
    target and reference per column.  rho * refs must have the shape of the
    result.  The max and the sum over the alphabet run left to right, so a
    column's bits follow from its own target, reference and rho alone.
    Callers validate their inputs: full-support distributions, 0 <= rho <= 1.
    """
    z = rho * refs
    z += (1.0 - rho) * targets
    mx = z[..., 0, :]
    for j in range(1, z.shape[-2]):
        mx = np.maximum(mx, z[..., j, :])
    z -= mx[..., None, :]
    z = np.exp(z, out=z)
    z /= ordered_sum(np.moveaxis(z, -2, 0))[..., None, :]
    return z


def renyi_frac(P, Q, alpha):
    """Renyi divergence of order alpha/(1+alpha) as a variational value.

    Returns (value, minimizer): the value is renyi_matrix's one-cell case,
        min_V  alpha*KL(V||P) + KL(V||Q),
    with 0 < alpha < inf, and the minimizer V*(x) is proportional to
    P(x)^(alpha/(1+alpha)) Q(x)^(1/(1+alpha)), the tilt of Q toward P.
    """
    P, Q = _pair(P, Q, ("P", "Q"))
    _check_weights(alpha=alpha)
    if np.any(P == 0) or np.any(Q == 0):
        raise ValueError("renyi_frac requires full-support distributions")
    V = tilt(np.log(Q)[:, None], np.log(P)[:, None], alpha / (1.0 + alpha))
    return float(renyi_matrix(P, Q, alpha)[0, 0]), V[:, 0]


def bht_tradeoff(P0, P1, e0):
    """Optimal binary-hypothesis exponent trade-off: inf over
    {Q : KL(Q||P0) <= e0} of KL(Q||P1), read at bht_minimizer(P0, P1, e0).
    For e0 >= KL(P1||P0) the answer is 0 (Q = P1 is feasible)."""
    return kl(bht_minimizer(P0, P1, e0), P1)


def bht_minimizer(P0, P1, e0):
    """The Q that attains bht_tradeoff(P0, P1, e0): P1 itself when
    e0 >= KL(P1||P0), which covers P0 = P1, P0 when e0 = 0, whose feasible
    set is {P0}, and otherwise the minimiser of
    KL(Q||P1) + s*KL(Q||P0) at the s of `cell_multiplier`, the tilt of P1
    toward P0 with weight s/(1+s) (`tilt`; P0 at s = inf), along which
    KL(Q||P0) has slope -Var_Q(log P0 - log P1)/((1+s)^3 ln 2).
    """
    P0, P1 = _pair(P0, P1, ("P0", "P1"))
    if np.any(P0 == 0) or np.any(P1 == 0):
        raise ValueError("bht_tradeoff requires full-support distributions")
    if e0 >= kl(P1, P0):
        return P1
    if not e0 >= 0:
        raise ValueError("e0 must be non-negative")
    if e0 == 0:
        return P0
    log0, log1 = np.log(P0)[:, None], np.log(P1)[:, None]
    x = (log0 - log1)[:, 0]
    minimiser = lambda s: tilt(log1, log0, s / (1.0 + s))[:, 0]

    def evaluate(s):
        Q = minimiser(s)
        var = ordered_sum(Q * x * x) - ordered_sum(Q * x) ** 2
        return kl(Q, P0), kl(Q, P1), -var / ((1.0 + s) ** 3 * LN2)

    s = cell_multiplier(evaluate, e0)
    return P0 if math.isinf(s) else minimiser(s)


def cell_multiplier(evaluate, budget):
    """The multiplier of one Lagrangian whose minimiser at s = 0 breaks its
    budget: s doubles from 1, at most 70 times, until it fits, and then
    `multiplier_search` (evaluate as there) returns the last s inside the
    budget at a gap of CELL_TOL; inf when no s up to 2**69 fits."""
    hi = 1.0
    for _ in range(70):
        c, f, _ = evaluate(hi)
        if c <= budget:
            return float(multiplier_search(evaluate, budget, hi, c, f, CELL_TOL)[0])
        hi *= 2.0
    return math.inf


def multiplier_search(evaluate, budget, hi, c_hi, f_hi, gap):
    """Safeguarded Newton search on the multiplier s of a stack of cells,
    each a Lagrangian whose constraint value c falls as s grows.

    evaluate(s) gives (c, f, dc/ds), floats or arrays, at each cell's
    minimiser at s.  hi is the first power of two from 1 at which a cell
    fits, c_hi <= budget with value f_hi: its bracket is [hi/2, hi], or
    [0, 1] when hi = 1.  The first trial fits c ~ (1 + s)^-2, the law of c
    at large s, through c at hi; each pass then moves an end of the bracket
    and steps on log c against log s toward the gap s*(budget - c) =
    gap * (1 + f) / 10, or bisects when a step is not a number or leaves
    the bracket.  A cell stops, and keeps its s, at a gap of at most
    gap * (1 + f), which puts f that close to its exact value, or at a
    2-ulp bracket.  Returns (hi, f_hi): each cell's last feasible s and f.
    """
    hi, f_hi = np.array(hi), np.array(f_hi)
    lo = np.where(hi > 1.0, 0.5 * hi, 0.0)
    with np.errstate(invalid="ignore"):
        s = (1.0 + hi) * np.sqrt(c_hi / budget) - 1.0
    s = np.where((lo < s) & (s < hi), s, 0.5 * (lo + hi))
    while True:
        c, f, dc = map(np.asarray, evaluate(s))
        fits = c <= budget
        np.copyto(hi, s, where=fits)
        np.copyto(f_hi, f, where=fits)
        np.copyto(lo, s, where=~fits)
        done = (fits & (s * (budget - c) <= gap * (1.0 + f))) | (hi - lo <= 2.0 * np.spacing(hi))
        if done.all():
            return hi, f_hi
        aim = budget - 0.1 * gap * (1.0 + f) / s
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = s * np.exp(c * np.log(aim / c) / (s * dc))
        np.copyto(s, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)), where=~done)
