"""Closed-form divergences in bits, their minimizers, and the binary
hypothesis-testing trade-off solver.

Conventions: 0*log(0/q) = 0, and q(x)=0 with p(x)>0 yields +inf as a value
(never an exception) so feasibility filters can compare it.  All returned
values are base-2; accumulation happens in natural log with one final
conversion.
"""

import numpy as np

from .simplex import as_dist

LN2 = np.log(2.0)

BHT_TOL = 1e-10
BHT_MAX_ITER = 200


def kl(Q, P):
    """KL divergence D(Q||P) in bits."""
    Q = as_dist(Q, "Q")
    P = as_dist(P, "P")
    if Q.size != P.size:
        raise ValueError("dimension mismatch")
    if np.any((Q > 0) & (P == 0)):
        return np.inf
    mask = Q > 0
    return float(np.sum(Q[mask] * np.log(Q[mask] / P[mask])) / LN2)


def _xlogx(a):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)), 0.0)
    return out


def kl_rows(Q, P):
    """Row-wise D(Q_i||P_i) for (N,d) stacks, in bits (vectorized)."""
    Q = np.atleast_2d(Q)
    P = np.atleast_2d(P)
    cross = np.where(Q > 0, Q * np.log(np.where(P > 0, P, 1.0)), 0.0)
    vals = (_xlogx(Q).sum(axis=-1) - cross.sum(axis=-1)) / LN2
    bad = ((Q > 0) & (P == 0)).any(axis=-1)
    return np.where(bad, np.inf, vals)


def kl_matrix(Q, P):
    """(N,M) matrix of D(Q_i||P_j) in bits; P must have full support rows."""
    Q = np.atleast_2d(Q)
    P = np.atleast_2d(P)
    ent = _xlogx(Q).sum(axis=1)  # sum_x q log q
    with np.errstate(divide="ignore"):
        cross = Q @ np.log(P).T  # (N,M) of sum_x q_i log p_j
    return (ent[:, None] - cross) / LN2


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

    Returns (value, minimizer) with
        value = min_V  alpha*KL(V||P) + KL(V||Q)
              = -(1+alpha) * log2  sum_x P(x)^(alpha/(1+alpha)) Q(x)^(1/(1+alpha))
    and minimizer V*(x) proportional to P(x)^(alpha/(1+alpha)) Q(x)^(1/(1+alpha)).
    """
    P = as_dist(P, "P")
    Q = as_dist(Q, "Q")
    if P.size != Q.size:
        raise ValueError("dimension mismatch")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if np.any(P == 0) or np.any(Q == 0):
        raise ValueError("renyi_frac requires full-support distributions")
    w = alpha / (1.0 + alpha)
    logv = w * np.log(P) + (1.0 - w) * np.log(Q)
    mx = logv.max()
    z = np.exp(logv - mx).sum()
    value = -(1.0 + alpha) * (mx + np.log(z)) / LN2
    V = np.exp(logv - mx) / z
    return float(value), V


def gjs(P, Q, alpha):
    """Generalized Jensen-Shannon divergence with weight alpha, in bits.

    Returns (value, minimizer):
        value = alpha*KL(P||M) + KL(Q||M),  M = (alpha*P + Q)/(alpha+1)
    which equals min_V { alpha*KL(P||V) + KL(Q||V) }: the weighted join
    with weights (alpha, 1).
    """
    return weighted_join_min(alpha, P, 1.0, Q)


def weighted_join_min(a, P, b, Q):
    """min_V a*KL(P||V) + b*KL(Q||V) with a,b > 0; returns (value, minimizer).

    The minimizer is the weighted mixture (a*P + b*Q)/(a+b), and the value
    is weighted_join_rows' one-row case.
    """
    P = as_dist(P, "P")
    Q = as_dist(Q, "Q")
    if P.size != Q.size:
        raise ValueError("dimension mismatch")
    if a <= 0 or b <= 0:
        raise ValueError("weights must be positive")
    M = (a * P + b * Q) / (a + b)
    return float(weighted_join_rows(a, P, b, Q)[0]), M


def gjs_rows(P, Q, alpha):
    """Row-wise GJS(P_i||Q_i, alpha) over two (T, d) stacks, in bits:
    weighted_join_rows with weights (alpha, 1)."""
    return weighted_join_rows(alpha, P, 1.0, Q)


def weighted_join_rows(a, P, b, Q):
    """Row-wise a*KL(P_i||M_i) + b*KL(Q_i||M_i), M = (a*P + b*Q)/(a+b), over
    two (T, d) stacks, in bits.

    Each KL term sums the masked Q*ln(Q/M) left to right, which for d < 8
    is the order numpy sums a short vector in, so every row equals the
    scalar kl-based value bit for bit.
    """
    P = np.atleast_2d(P)
    Q = np.atleast_2d(Q)
    M = (a * P + b * Q) / (a + b)
    return a * _kl_left_to_right(P, M) + b * _kl_left_to_right(Q, M)


def _kl_left_to_right(Q, P):
    mask = Q > 0
    terms = np.zeros(Q.shape)
    terms[mask] = Q[mask] * np.log(Q[mask] / P[mask])
    acc = terms[:, 0]
    for j in range(1, Q.shape[1]):
        acc = acc + terms[:, j]
    return acc / LN2


def gjs_value(P, Q, alpha):
    return gjs(P, Q, alpha)[0]


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
    if e0 <= 0:
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
