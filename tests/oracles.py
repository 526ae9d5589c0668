"""Test-only references: pure grid-enumeration oracles for the exponent
terms, a stars-and-bars enumeration of the simplex grid to check the grid
builder against, the alpha*beta < 1 instance where mu drops below the Renyi
term, and a reader for curve.csv.

The oracles deliberately avoid the solver's refinement and duality
machinery: every quantity is a minimum over explicit dense simplex grids,
so the two routes share nothing but the divergence, grid and lambda
primitives (plus the instance types and the CSV header).
test_acceptance.py checks that this module imports nothing else from
seqclass.  The tests check the solver against these oracles.
"""

import math
from itertools import combinations

import numpy as np

from seqclass import divergence as dv
from seqclass.cli import CURVE_COLUMNS
from seqclass.exponents import ConstantLambda, ProblemInstance, ScaledRenyiLambda, lambda_matrix
from seqclass.simplex import box_grid, grid_array


def compositions(d, m):
    """Iterate over all integer compositions (k_1,...,k_d) with sum m, in
    lexicographic order."""
    # stars and bars: positions of the d-1 bars among m+d-1 slots
    for bars in combinations(range(m + d - 1), d - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(m + d - 2 - prev)
        yield tuple(parts)


def oracle_kappa(inst, m=2000, inner_m=None):
    """Dense-grid kappa: pairs (Q0, Q1) on the eps-floored grid."""
    pg = grid_array(inst.d, m, eps=inst.eps)
    a, b = inst.alpha, inst.beta
    obj0 = a * dv.kl(pg, inst.p0)  # (N,)
    obj1 = (1 + b) * dv.kl(pg, inst.p1)  # (N,)
    if isinstance(inst.lam, ConstantLambda):
        best = np.inf
        lam0 = inst.lam.lambda0
        for i in range(pg.shape[0]):
            g = dv.weighted_join(a, pg[i][None, :], 1.0, pg)
            ok = g <= lam0
            if ok.any():
                cand = obj0[i] + obj1[ok].min()
                best = min(best, float(cand))
        return best
    inner_m = inner_m or m
    ig = grid_array(inst.d, inner_m, eps=inst.eps)
    lam = lambda_matrix(inst.lam, ig, ig, b)  # (k, k)
    kg = dv.kl_matrix(pg, ig)  # (N, k)  KL(Q||P') for every grid point Q
    u = kg + _slot_min(b * kg, lam)  # (N, k) indexed by Q1
    ka = inst.alpha * kg  # (N, k) indexed by Q0
    best = np.inf
    for i in range(pg.shape[0]):  # Q0 index
        g1diag = (ka[i][None, :] + u).min(axis=1)  # (N,) over Q1
        ok = g1diag < 0
        if ok.any():
            best = min(best, float(obj0[i] + obj1[ok].min()))
    return best


def oracle_mu(inst, m=2000, inner_m=None):
    """Dense-grid mu: pairs (Q0, Q1) on the full simplex grid."""
    pg = grid_array(inst.d, m)
    a, b = inst.alpha, inst.beta
    obj0 = a * dv.kl(pg, inst.p0)
    obj1 = b * dv.kl(pg, inst.p1)
    lead = a * dv.kl(pg, inst.p1)  # (N,) indexed by Q0
    if isinstance(inst.lam, ConstantLambda):
        floor_cost = np.array([b * kl_floor_projection(q, inst.eps)[0] for q in pg])
        h = floor_cost - inst.lam.lambda0
    else:
        inner_m = inner_m or m
        ig = grid_array(inst.d, inner_m, eps=inst.eps)
        lamv = lambda_matrix(inst.lam, inst.p1[None, :], ig, b)[0]
        h = (b * dv.kl_matrix(pg, ig) - lamv[None, :]).min(axis=1)
    best = np.inf
    for i in range(pg.shape[0]):
        ok = lead[i] + h < 0
        if ok.any():
            best = min(best, float(obj0[i] + obj1[ok].min()))
    return best


def oracle_efix(inst, m=2000, coarse_m=100, inner_m=400, top_k=5):
    """Dense-grid fixed-length exponent.

    Constant lambda: exact pair grid over (Q, Q0) at density m (the Q1 block
    contributes zero at Q1 = P1 and never enters the constraint).

    Scaled-Renyi: the feasible set couples a full triple (Q, Q0, Q1), so a
    single dense triple grid at density m is out of reach.  Two stages
    instead: a global triple grid at coarse_m locates candidate basins, then
    the top_k best basins are re-gridded locally at spacing 1/m.
    """
    a, b = inst.alpha, inst.beta
    P0, P1 = inst.p0, inst.p1
    if isinstance(inst.lam, ConstantLambda):
        pg = grid_array(inst.d, m, eps=None)
        lam0 = inst.lam.lambda0
        objq = dv.kl(pg, P1)
        objq0 = a * dv.kl(pg, P0)
        best = np.inf
        for i in range(pg.shape[0]):  # Q0 index
            g = dv.weighted_join(a, pg[i][None, :], 1.0, pg)  # over Q
            ok = g <= lam0
            if ok.any():
                best = min(best, float(objq0[i] + objq[ok].min()))
        return best

    ig = grid_array(inst.d, inner_m, eps=inst.eps)
    lam = lambda_matrix(inst.lam, ig, ig, b)

    def stage(qgrid):
        """(value, argmin index triple) over one triple grid."""
        c1 = dv.kl_matrix(qgrid, ig)  # KL(Q||P0') (N,k)
        c2 = a * c1  # (N,k) for Q0
        t = _slot_min(b * c1, lam)  # (N,k) for Q1
        objq = dv.kl(qgrid, P1)
        objq0 = a * dv.kl(qgrid, P0)
        objq1 = b * dv.kl(qgrid, P1)
        N = qgrid.shape[0]
        vals = []  # (value, (iq, i0, i1))
        for i0 in range(N):
            # g1 over (Q, Q1) for this Q0: min_j c1[q,j] + c2[i0,j] + t[q1,j]
            best_here = np.inf
            arg_here = None
            for i1 in range(N):
                g = (c1 + (c2[i0] + t[i1])[None, :]).min(axis=1)  # (N,) over Q
                ok = g < 0
                if ok.any():
                    iq = int(np.argmin(np.where(ok, objq, np.inf)))
                    v = objq[iq] + objq0[i0] + objq1[i1]
                    if v < best_here:
                        best_here, arg_here = float(v), (iq, i0, i1)
            if arg_here is not None:
                vals.append((best_here, arg_here))
        return vals

    coarse = grid_array(inst.d, coarse_m, eps=None)
    cand = sorted(stage(coarse))[:top_k]
    if not cand:
        return np.inf
    best = cand[0][0]
    spacing = 2.0 / coarse_m
    for _, (iq, i0, i1) in cand:
        centers = [coarse[iq], coarse[i0], coarse[i1]]
        locals_ = [box_grid(c, spacing, m) for c in centers]
        v = _efix_local(inst, ig, lam, *locals_)
        best = min(best, v)
    return best


def oracle_efix_cell(u, v, inst):
    """The inner fixed-length value at one candidate pair (u, v) of a
    scaled-Renyi instance, by scalar bisection on the Lagrange multiplier.

        minimise  KL(Q||P1) + alpha*KL(Q0||P0) + beta*KL(Q1||P1)
        s.t.      KL(Q||u) + alpha*KL(Q0||u) + beta*KL(Q1||v) <= L,
    with L = lambda(u, v).  At a multiplier s each block minimiser is the
    tilt of its target toward its reference with weight s/(1+s), and the
    constraint falls as s grows.  hi doubles from 1 until the constraint
    fits, then [0, hi] is halved until lo and hi are adjacent floats; the
    objective at that hi is the value.  inf when L <= 0, 0 when (P1, P0,
    P1) already fits.  Every block is built with `dv.tilted` and every
    divergence with `dv.kl`, one pair at a time.
    """
    a, b = inst.alpha, inst.beta
    P0, P1 = inst.p0, inst.p1
    budget = float(lambda_matrix(inst.lam, u, v, b)[0, 0])
    if budget <= 0.0:
        return math.inf

    def at(s):
        rho = s / (1.0 + s)
        Q, Q0, Q1 = dv.tilted(P1, u, rho), dv.tilted(P0, u, rho), dv.tilted(P1, v, rho)
        c = dv.kl(Q, u) + a * dv.kl(Q0, u) + b * dv.kl(Q1, v)
        f = dv.kl(Q, P1) + a * dv.kl(Q0, P0) + b * dv.kl(Q1, P1)
        return c, f

    if at(0.0)[0] <= budget:
        return 0.0
    lo, hi = 0.0, 1.0
    while at(hi)[0] > budget:
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if at(mid)[0] > budget:
            lo = mid
        else:
            hi = mid
    return at(hi)[1]


def kl_floor_projection(Q, eps):
    """min over {P in the eps-floored simplex} of KL(Q||P), in bits.

    Water-filling: small entries of P are pinned at eps, the rest stay
    proportional to Q.  Returns (value, argmin).
    """
    Q = np.asarray(Q, dtype=np.float64)
    d = Q.size
    if not 0.0 < eps < 1.0 / d:
        raise ValueError(f"epsilon must be in (0, 1/{d}), got {eps}")
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
            return dv.kl(Q, P), P
    # fall through only on degenerate input; pin everything but the largest
    P = np.full(d, eps)
    P[order[-1]] = 1.0 - (d - 1) * eps
    return dv.kl(Q, P), P


def _slot_min(bm, lam):
    """t[i, j] = min over l of bm[i, l] - lam[j, l] (the P1' slot)."""
    t = np.empty((bm.shape[0], lam.shape[0]))
    for j in range(lam.shape[0]):
        t[:, j] = (bm - lam[j][None, :]).min(axis=1)
    return t


def _efix_local(inst, ig, lam, Qg, Q0g, Q1g):
    a, b = inst.alpha, inst.beta
    c1 = dv.kl_matrix(Qg, ig)
    c2 = a * dv.kl_matrix(Q0g, ig)
    t = _slot_min(b * dv.kl_matrix(Q1g, ig), lam)
    objq = dv.kl(Qg, inst.p1)
    objq0 = a * dv.kl(Q0g, inst.p0)
    objq1 = b * dv.kl(Q1g, inst.p1)
    best = np.inf
    for i0 in range(Q0g.shape[0]):
        for i1 in range(Q1g.shape[0]):
            g = (c1 + (c2[i0] + t[i1])[None, :]).min(axis=1)
            ok = g < 0
            if ok.any():
                v = float(np.where(ok, objq, np.inf).min() + objq0[i0] + objq1[i1])
                if v < best:
                    best = v
    return best


def find_mu_violation(alpha, beta, eps=0.01, seed=0, tries=200, margin=5e-3):
    """Search for a pair (P0, P1) where mu drops below the Renyi term.

    Only possible when alpha*beta < 1 under the pure scaled-Renyi constraint
    (xi = 1, offset = 0).  Construction: take Q0 = V_alpha (the Renyi
    minimizer of (P0, P1)), slide P1' along the segment from P1 toward P0
    and take Q1 = V_beta, the Renyi minimizer of (P1', P1).  Feasibility and
    improvement reduce to the two-sided condition
        alpha*KL(V_a||P1)  <  KL(V_b||P1)  <  KL(V_a||P1)/beta,
    whose interior is nonempty exactly when alpha*beta < 1; KL(V_b||P1)
    sweeps continuously from 0, so a fine scan of the segment lands inside.

    Returns (inst, bound): the instance of the pair under that constraint and
    an attained mu value strictly below renyi_term - margin, or None if no
    pair was found.
    """
    if alpha * beta >= 1:
        return None
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    lam = ScaledRenyiLambda(xi=1.0, offset=0.0)
    for _ in range(tries):
        p = eps + (1 - 2 * eps) * rng.random()
        q = eps + (1 - 2 * eps) * rng.random()
        if abs(p - q) < 0.2:
            continue
        P0 = np.array([p, 1 - p])
        P1 = np.array([q, 1 - q])
        ren, Va = dv.renyi_frac(P0, P1, alpha)
        target = dv.kl(Va, P1)
        for t in np.linspace(0.005, 1.0, 400):
            P1p = (1 - t) * P1 + t * P0
            lamv, Vb = dv.renyi_frac(P1p, P1, beta)
            mid = dv.kl(Vb, P1)
            if not (alpha * target < mid < target / beta):
                continue
            # attained value of the mu objective at (Q0, Q1) = (V_a, V_b)
            bound = alpha * dv.kl(Va, P0) + beta * mid
            feas = alpha * target + beta * dv.kl(Vb, P1p) - lamv
            if feas < -1e-9 and bound < ren - margin:
                inst = ProblemInstance(
                    tuple(P0), tuple(P1), alpha, beta, lam, eps=eps
                )
                return inst, float(bound)
    return None


def parse_value(s):
    return math.inf if s == "inf" else float(s)


def csv_to_rows(text):
    """The rows of a curve.csv text, with the 'inf' token read back as inf."""
    lines = text.strip().splitlines()
    if lines[0] != ",".join(CURVE_COLUMNS):
        raise ValueError("unexpected CSV header")
    return [[parse_value(tok) for tok in line.split(",")] for line in lines[1:]]
