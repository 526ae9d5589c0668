"""Closed-form divergences in bits, their minimizers, and the binary
hypothesis-testing trade-off solver.

Each divergence has one kernel over row stacks (kl, weighted_join,
renyi_matrix); a validated call on one 1-D pair is its one-row case.
Conventions: 0*log(0/p) = 0, and q(x) > 0 = p(x) makes D(Q||P) +inf as a
value (never an exception or a warning) so feasibility filters can compare
it.  All returned values are base-2; accumulation happens in natural log
with one final conversion.
"""

import math

import numpy as np

from .simplex import as_dist, check_eps

LN2 = np.log(2.0)

BHT_TOL = 1e-10
BHT_MAX_ITER = 200


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

    The masked terms Q*ln(Q/P) are summed left to right, which for d < 8
    is the order numpy sums a short vector in; q > 0 = p gives +inf.
    """
    if Q.shape != P.shape:
        Q, P = np.broadcast_arrays(Q, P)
    mask = Q > 0
    terms = np.zeros(Q.shape)
    with np.errstate(divide="ignore"):
        terms[mask] = Q[mask] * np.log(Q[mask] / P[mask])
    acc = terms[:, 0]
    for j in range(1, Q.shape[1]):
        acc = acc + terms[:, j]
    return acc / LN2


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


def _xlogx(a):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)), 0.0)
    return out


def kl_matrix(Q, P):
    """(N,M) matrix of D(Q_i||P_j) in bits; P must have full support rows."""
    Q = np.atleast_2d(Q)
    P = np.atleast_2d(P)
    ent = _xlogx(Q).sum(axis=1)  # sum_x q log q
    with np.errstate(divide="ignore"):
        cross = Q @ np.log(P).T  # (N,M) of sum_x q_i log p_j
    return (ent[:, None] - cross) / LN2


def renyi_matrix(Prows, Qrows, alpha):
    """(N,M) matrix of the Renyi value of (P_i, Q_j) with weight alpha, in bits:
        min_V alpha*KL(V||P_i) + KL(V||Q_j)
          = -(1+alpha) * log2 sum_x P_i(x)^(alpha/(1+alpha)) Q_j(x)^(1/(1+alpha)).
    Rows must have full support.
    """
    w = alpha / (1.0 + alpha)
    z = (np.atleast_2d(Prows) ** w) @ (np.atleast_2d(Qrows) ** (1.0 - w)).T
    return -(1.0 + alpha) * np.log(z) / LN2


def tilted(P0, P1, rho):
    """Tilted distribution P_rho proportional to P0^(1-rho) * P1^rho."""
    P0 = as_dist(P0, "P0")
    P1 = as_dist(P1, "P1")
    if np.any(P0 == 0) or np.any(P1 == 0):
        raise ValueError("tilted requires full-support distributions")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0,1]")
    logw = (1 - rho) * np.log(P0) + rho * np.log(P1)
    w = np.exp(logw - logw.max())
    return w / w.sum()


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
    return float(renyi_matrix(P, Q, alpha)[0, 0]), tilted(Q, P, alpha / (1.0 + alpha))


#: rows of P that gjs_cross takes at once: bounds its (chunk, M, d) temporaries
_CROSS_CHUNK = 256


def gjs_cross(Prows, Qrows, alpha):
    """(N,M) matrix of GJS(P_i||Q_j, alpha) over two row stacks, in bits."""
    Prows = np.atleast_2d(Prows)
    Qrows = np.atleast_2d(Qrows)
    N = Prows.shape[0]
    out = np.empty((N, Qrows.shape[0]))
    entP = _xlogx(Prows).sum(axis=1)
    entQ = _xlogx(Qrows).sum(axis=1)
    for i0 in range(0, N, _CROSS_CHUNK):
        rows = slice(i0, i0 + _CROSS_CHUNK)
        P = Prows[rows]
        M = (alpha * P[:, None, :] + Qrows[None, :, :]) / (alpha + 1.0)
        logM = np.log(np.where(M > 0, M, 1.0))
        crossP = np.einsum("nd,nmd->nm", P, logM)
        crossQ = np.einsum("md,nmd->nm", Qrows, logM)
        out[rows] = (
            alpha * (entP[rows, None] - crossP) + (entQ[None, :] - crossQ)
        ) / LN2
    return out


def bht_tradeoff(P0, P1, e0):
    """Optimal binary-hypothesis exponent trade-off.

    Returns inf over {Q : KL(Q||P0) <= e0} of KL(Q||P1), found by bisecting
    the tilt parameter rho so that KL(P_rho||P0) = e0 (monotone in rho).
    For e0 >= KL(P1||P0) the answer is 0 (Q = P1 is feasible).
    """
    P0 = as_dist(P0, "P0")
    P1 = as_dist(P1, "P1")
    if np.any(P0 == 0) or np.any(P1 == 0):
        raise ValueError("bht_tradeoff requires full-support distributions")
    if np.allclose(P0, P1):
        raise ValueError("P0 and P1 must be distinct")
    if not e0 > 0:
        raise ValueError("e0 must be positive")
    if e0 >= kl(P1, P0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(BHT_MAX_ITER):
        if hi - lo <= BHT_TOL * max(lo, 1e-300):
            break
        mid = 0.5 * (lo + hi)
        v = kl(tilted(P0, P1, mid), P0)
        if v < e0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    return kl(tilted(P0, P1, rho), P1)


def kl_floor_projection(Q, eps):
    """min over {P in the eps-floored simplex} of KL(Q||P), in bits.

    Water-filling: small entries of P are pinned at eps, the rest stay
    proportional to Q.  Returns (value, argmin).
    """
    Q = as_dist(Q, "Q")
    d = Q.size
    check_eps(eps, d)
    order = np.argsort(Q)  # ascending; candidates for pinning at eps
    qs = Q[order]
    for k in range(d):
        # pin the k smallest entries of Q at eps
        tail = qs[k:].sum()
        if tail <= 0:
            continue
        nu = tail / (1.0 - k * eps)
        # validity: pinned entries want mass <= eps, free entries > eps
        ok_low = k == 0 or qs[k - 1] / nu <= eps + 1e-15
        ok_high = qs[k] / nu >= eps - 1e-15
        if ok_low and ok_high:
            P = np.empty(d)
            P[order[:k]] = eps
            P[order[k:]] = qs[k:] / nu
            return kl(Q, P), P
    # fall through only on degenerate input; pin everything but the largest
    P = np.full(d, eps)
    P[order[-1]] = 1.0 - (d - 1) * eps
    return kl(Q, P), P
