"""Exponent terms for universal classification under a type-I constraint
family lambda(P0', P1'): the Renyi term, kappa, mu, nu and the fixed-length
exponent, assembled into per-setup optimal type-II exponents.

Two constraint families are supported:

* ``ConstantLambda(lambda0)`` — closed-form rewrites exist for g1, kappa and
  the fixed-length exponent (everything reduces to GJS threshold problems).
* ``ScaledRenyiLambda(xi, offset)`` — lambda = xi * (Renyi(P1'||P0') + offset);
  the searches run over explicit simplex grids.  With offset = 0 and
  xi <= 1 the lambda-balls can never produce a false sequential decision,
  which yields an analytic kappa = +inf certificate.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from . import divergence as dv
from .optimizer import ALWAYS_TRUE, PAIR_CELL_LIMIT, SearchConfig, SearchResult, box_schedule, min_simplex_pair
from .simplex import as_dist, box_grid, box_mesh_size, check_eps, grid_array, satisfies_floor


@dataclass(frozen=True)
class ConstantLambda:
    lambda0: float

    def __post_init__(self):
        if not 0.0 < self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be positive and finite, got {self.lambda0}")


@dataclass(frozen=True)
class ScaledRenyiLambda:
    xi: float
    offset: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.xi <= 1.0:
            raise ValueError("xi must lie in (0, 1]")
        if not 0.0 <= self.offset < math.inf:
            raise ValueError(f"offset must be >= 0 and finite, got {self.offset}")


LambdaSpec = Union[ConstantLambda, ScaledRenyiLambda]


def lambda_eval(spec, P0p, P1p, beta):
    """Threshold value lambda(P0', P1') for a constraint family:
    lambda_matrix's one-cell case.

    On the diagonal P0' = P1' the scaled-Renyi family returns its continuous
    extension xi * offset (the Renyi part vanishes there by continuity).
    """
    return float(lambda_matrix(spec, P0p, P1p, beta)[0, 0])


def lambda_matrix(spec, P0rows, P1rows, beta):
    """(N,M) matrix of lambda over two row stacks of candidate pairs."""
    P0rows = np.atleast_2d(P0rows)
    P1rows = np.atleast_2d(P1rows)
    if isinstance(spec, ConstantLambda):
        return np.full((P0rows.shape[0], P1rows.shape[0]), spec.lambda0)
    return spec.xi * (dv.renyi_matrix(P1rows, P0rows, beta).T + spec.offset)


@dataclass(frozen=True)
class ProblemInstance:
    P0: tuple
    P1: tuple
    alpha: float
    beta: float
    lam: LambdaSpec
    eps: float = 0.01

    def __post_init__(self):
        P0 = as_dist(self.P0, "P0")
        P1 = as_dist(self.P1, "P1")
        if P0.size != P1.size:
            raise ValueError("P0 and P1 must share an alphabet")
        if np.array_equal(P0, P1):
            raise ValueError("distinct distributions required")
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError("alpha and beta must be positive and finite")
        check_eps(self.eps, P0.size)
        if not (satisfies_floor(P0, self.eps) and satisfies_floor(P1, self.eps)):
            raise ValueError("P0 and P1 must satisfy the epsilon floor")
        object.__setattr__(self, "P0", tuple(float(x) for x in P0))
        object.__setattr__(self, "P1", tuple(float(x) for x in P1))

    @property
    def p0(self):
        return np.asarray(self.P0)

    @property
    def p1(self):
        return np.asarray(self.P1)

    @property
    def d(self):
        return len(self.P0)


#: box re-gridding rounds of the polish around each inner grid minimum
_POLISH_ROUNDS = 2


def _inner_density(inst, cfg):
    # density of the fixed (P0', P1') grids used when evaluating g1 and
    # friends for the scaled-Renyi family; the inner minima are smooth, so
    # grid error is quadratic in the spacing
    m = cfg.resolve_m(inst.d)
    return 2 * m if inst.d == 2 else m


def g1(Q, Q0, Q1, inst, cfg=SearchConfig(), weights=None):
    """Sequential-decision score: how lambda-close (Q, Q0, Q1) is to a null pair.

    inf over candidate pairs (P0', P1') in the eps floor of
        wx*KL(Q||P0') + w0*KL(Q0||P0') + w1*KL(Q1||P1') - lambda(P0', P1')
    with weights = (wx, w0, w1), by default (1, alpha, beta); the late-phase
    score g_n is this infimum with the sequential blocks counted n-fold.
    Negative means some admissible null pair explains the tuple within its
    type-I budget.  Constant lambda collapses the P1' slot onto Q1 and the
    P0' slot onto the weighted join of Q0 and Q: the score is
    weighted_join(w0, Q0, wx, Q) - lambda0.

    Takes one tuple of distributions and returns a float, or three (N, d)
    stacks and returns one score per row.  Under a scaled-Renyi budget the
    inner grid and lambda on it are built once per call and each row is
    solved alone, so a row's score does not depend on the rest of its stack.
    """
    one = np.ndim(Q) == 1
    if one:
        Q, Q0, Q1 = (as_dist(v, name)[None, :] for v, name in ((Q, "Q"), (Q0, "Q0"), (Q1, "Q1")))
    wx, w0, w1 = (1.0, inst.alpha, inst.beta) if weights is None else weights
    if isinstance(inst.lam, ConstantLambda):
        out = dv.weighted_join(w0, Q0, wx, Q) - inst.lam.lambda0
        return float(out[0]) if one else out
    check_g1_polish(inst, cfg)
    k = _inner_density(inst, cfg)
    pg = grid_array(inst.d, k, eps=inst.eps)
    lam = lambda_matrix(inst.lam, pg, pg, inst.beta)  # (k0, k1)
    out = np.empty(len(Q))
    for i in range(len(Q)):
        a = wx * dv.kl_matrix(Q[i], pg) + w0 * dv.kl_matrix(Q0[i], pg)  # (1, k0)
        b = w1 * dv.kl_matrix(Q1[i], pg)  # (1, k1)
        scores = (a + _p1_slot_min(b, lam))[0]
        j = int(scores.argmin())
        l = int((b[0] - lam[j]).argmin())
        # local polish around the argmin pair; the objective is smooth in
        # (P0', P1') so a couple of shrinking box passes suffice
        score = partial(_g1_box, Q[i], Q0[i], Q1[i], (wx, w0, w1), inst)
        out[i] = min(scores[j], _polish(score, (pg[j], pg[l]), k, inst.eps))
    return float(out[0]) if one else out


def _p1_slot_min(b, lam):
    """t[i, j] = min over l of b[i, l] - lam[j, l]: the P1' slot minimised
    out for each P0' of the grid, one row of b at a time."""
    t = np.empty((b.shape[0], lam.shape[0]))
    for i in range(b.shape[0]):
        t[i] = (b[i] - lam).min(axis=1)
    return t


def _g1_box(Q, Q0, Q1, weights, inst, U, V):
    """The weighted score of one tuple over P0' rows U and P1' rows V:
        wx*KL(Q||P0') + w0*KL(Q0||P0') + w1*KL(Q1||P1') - lambda(P0', P1')
    as a (|U|, |V|) matrix, with g1's weights = (wx, w0, w1)."""
    wx, w0, w1 = weights
    lam = lambda_matrix(inst.lam, U, V, inst.beta)
    a = (wx * dv.kl_matrix(Q[None, :], U) + w0 * dv.kl_matrix(Q0[None, :], U))[0]
    b = w1 * dv.kl_matrix(Q1[None, :], V)[0]
    return a[:, None] + b[None, :] - lam


def check_g1_polish(inst, cfg=SearchConfig()):
    """Raise ValueError if g1's polish could score more than PAIR_CELL_LIMIT
    pairs in one round.

    The round scores every pair of two box grids; each box is bounded by
    its mesh size, so nothing is allocated.  That admits d = 2 and d = 3 at
    every density; from d = 4 on a box holds tens of thousands of points.
    A constant budget never polishes.
    """
    if isinstance(inst.lam, ConstantLambda):
        return
    for halfwidth, density in box_schedule(_inner_density(inst, cfg), _POLISH_ROUNDS):
        side = box_mesh_size(inst.d, halfwidth, density)
        if side * side > PAIR_CELL_LIMIT:
            raise ValueError(
                f"g1 polish too large at d={inst.d}: two boxes of up to {side} points "
                f"make {side * side} cells > {PAIR_CELL_LIMIT}"
            )


def _polish(score, centers, density, eps):
    """Lowest score found over the _POLISH_ROUNDS rounds of box re-gridding.

    Each round of `box_schedule` grids a box around every block's center,
    scores all combinations (score takes one row stack per block and
    returns an array with one axis per block) and moves the centers to the
    box minimiser.
    """
    best = np.inf
    for halfwidth, density in box_schedule(density, _POLISH_ROUNDS):
        boxes = [box_grid(c, halfwidth, density, eps) for c in centers]
        s = score(*boxes)
        idx = np.unravel_index(int(np.argmin(s)), s.shape)
        best = min(best, float(s[idx]))
        centers = [box[i] for box, i in zip(boxes, idx)]
    return best


def renyi_term(inst):
    """The fully-sequential Renyi term: min_V alpha*KL(V||P0) + KL(V||P1)."""
    value, _ = dv.renyi_frac(inst.p0, inst.p1, inst.alpha)
    return value


def kappa_certified_infinite(inst):
    """True when lambda <= Renyi pointwise, so no tuple can ever score g1 < 0.

    Holds for the scaled-Renyi family with offset 0 and xi <= 1: for any
    (Q0, Q1) and candidate pair, the weighted KL sum in g1 is at least the
    Renyi divergence of the pair, hence at least lambda.
    """
    return isinstance(inst.lam, ScaledRenyiLambda) and inst.lam.offset == 0.0


def kappa(inst, cfg=SearchConfig()):
    return kappa_search(inst, cfg).value


def kappa_search(inst, cfg=SearchConfig()):
    """inf over (Q0, Q1) in the eps floor with g1(Q1, Q0, Q1) < 0 of
    (1+beta)*KL(Q1||P1) + alpha*KL(Q0||P0)."""
    a, b = inst.alpha, inst.beta
    P0, P1 = inst.p0, inst.p1
    if isinstance(inst.lam, ConstantLambda):
        lam0 = inst.lam.lambda0
        if dv.gjs_value(P0, P1, a) <= lam0:
            return SearchResult(0.0, (P0, P1))

        def constraint(A, B):
            return dv.gjs_cross(A, B, a) <= lam0

    elif kappa_certified_infinite(inst):
        return SearchResult(math.inf, None)
    else:

        def constraint(A, B):
            return _g1_diag_matrix(A, B, inst, cfg) < 0.0

    def objective(A, B):
        return a * dv.kl(A, P0)[:, None] + (1 + b) * dv.kl(B, P1)[None, :]

    return min_simplex_pair(objective, constraint, inst.d, cfg, eps=inst.eps)


def _g1_diag_matrix(Q0rows, Q1rows, inst, cfg):
    """(N,M) matrix of g1(Q1_j, Q0_i, Q1_j) for the scaled-Renyi family."""
    k = _inner_density(inst, cfg)
    pg = grid_array(inst.d, k, eps=inst.eps)
    lam = lambda_matrix(inst.lam, pg, pg, inst.beta)
    ka = inst.alpha * dv.kl_matrix(Q0rows, pg)  # (N, k)
    c1 = dv.kl_matrix(Q1rows, pg)  # (M, k)
    u = c1 + _p1_slot_min(inst.beta * c1, lam)  # (M, k)
    out = np.empty((Q0rows.shape[0], Q1rows.shape[0]))
    for i in range(Q0rows.shape[0]):
        out[i] = (ka[i][None, :] + u).min(axis=1)
    return out


def mu(inst, cfg=SearchConfig()):
    return mu_search(inst, cfg).value


def mu_search(inst, cfg=SearchConfig()):
    """Semi-sequential-1 training-limitation term.

    inf over (Q0, Q1) with g(Q0, Q1) < 0 of alpha*KL(Q0||P0) + beta*KL(Q1||P1),
    where g relaxes only the P1' slot:
        g(Q0, Q1) = inf over P1' in the eps floor of
            alpha*KL(Q0||P1) + beta*KL(Q1||P1') - lambda(P1, P1').
    The puncture P1' != P1 is closed via the continuous lambda extension.
    """
    a, b = inst.alpha, inst.beta
    P0, P1 = inst.p0, inst.p1

    def objective(A, B):
        return a * dv.kl(A, P0)[:, None] + b * dv.kl(B, P1)[None, :]

    if isinstance(inst.lam, ConstantLambda):
        lam0 = inst.lam.lambda0

        def constraint(A, B):
            lead = a * dv.kl(A, P1) - lam0  # (N,)
            floor_cost = np.array([b * dv.kl_floor_projection(q, inst.eps)[0] for q in B])
            return lead[:, None] + floor_cost[None, :] < 0.0

    else:

        def constraint(A, B):
            lead = a * dv.kl(A, P1)  # (N,)
            h = _mu_inner(B, inst, cfg)  # (M,)
            return lead[:, None] + h[None, :] < 0.0

    return min_simplex_pair(objective, constraint, inst.d, cfg)


def _mu_inner(Q1rows, inst, cfg):
    """h(Q1) = inf over P1' of beta*KL(Q1||P1') - lambda(P1, P1'), vectorized."""
    b = inst.beta
    k = _inner_density(inst, cfg)
    pg = grid_array(inst.d, k, eps=inst.eps)
    lamv = lambda_matrix(inst.lam, inst.p1[None, :], pg, b)[0]  # (k,)
    scores = b * dv.kl_matrix(Q1rows, pg) - lamv[None, :]
    h = scores.min(axis=1)
    arg = scores.argmin(axis=1)
    # polish each row's inner minimum (smooth in P1')
    for i in range(Q1rows.shape[0]):
        score = partial(_mu_box, Q1rows[i], inst)
        h[i] = min(h[i], _polish(score, (pg[arg[i]],), k, inst.eps))
    return h


def _mu_box(Q1, inst, V):
    """The objective of h at one Q1 row over P1' rows V."""
    lam = lambda_matrix(inst.lam, inst.p1[None, :], V, inst.beta)[0]
    return inst.beta * dv.kl_matrix(Q1[None, :], V)[0] - lam


def nu(inst):
    """Semi-sequential-2 term: binary trade-off at budget lambda(P0, P1)."""
    lamP = lambda_eval(inst.lam, inst.p0, inst.p1, inst.beta)
    if lamP >= dv.kl(inst.p1, inst.p0):
        return 0.0
    return dv.bht_tradeoff(inst.p0, inst.p1, lamP)


def e_fix(inst, cfg=SearchConfig()):
    return e_fix_search(inst, cfg).value


def e_fix_search(inst, cfg=SearchConfig()):
    """Fixed-length exponent.

    inf over tuples (Q, Q0, Q1) with g1(Q, Q0, Q1) < 0 of
        KL(Q||P1) + alpha*KL(Q0||P0) + beta*KL(Q1||P1).

    Constant lambda: the Q1 block is unconstrained and collapses to P1,
    leaving a pair problem over (Q, Q0) with a GJS feasibility threshold.
    Scaled-Renyi: swap the infima — search candidate pairs (P0', P1') and,
    for each, solve the convex inner problem (minimize the objective subject
    to the tuple lying in that pair's lambda-ball) exactly by Lagrangian
    bisection on the multiplier; all block minimizers are tilted families.
    Each grid of pairs is solved by branch and bound (_efix_dual_matrix):
    a pair whose Lagrangian lower bound exceeds the least feasible value
    found, by more than a slack of 1e-9 * (1 + s), is never bisected.  The
    grid's minimum and argmin, and so the result, are those of solving
    every pair.
    """
    a, b = inst.alpha, inst.beta
    P0, P1 = inst.p0, inst.p1
    if isinstance(inst.lam, ConstantLambda):
        lam0 = inst.lam.lambda0
        if dv.gjs_value(P0, P1, a) <= lam0:
            return SearchResult(0.0, (P1, P0, P1))

        def objective(A, B):
            return dv.kl(A, P1)[:, None] + a * dv.kl(B, P0)[None, :]

        def constraint(A, B):
            return dv.gjs_cross(B, A, a).T <= lam0

        res = min_simplex_pair(objective, constraint, inst.d, cfg)
        if res.argmin is None:
            return res
        q, q0 = res.argmin
        return SearchResult(res.value, (q, q0, P1))

    def objective(A, B):
        return _efix_dual_matrix(A, B, inst)

    return min_simplex_pair(objective, ALWAYS_TRUE, inst.d, cfg, eps=inst.eps)


#: cells of the e_fix dual solved together: a chunk's (d, K) arrays stay in L2
_DUAL_CHUNK = 4096
#: slack of the Lagrangian bound per unit of (1 + s), where s is the
#: multiplier it was taken at: about 1e5 times the rounding error of the
#: bound and of the value the cell's own bisection reaches
_BOUND_SLACK = 1e-9


def _efix_dual_matrix(Urows, Vrows, inst):
    """For each candidate pair (P0', P1'), the exact inner fixed-length value,
    or +inf where the Lagrangian bound shows it cannot be the minimum.

    Inner problem at pair (u, v) with budget L = lambda(u, v):
        minimize  f = KL(Q||P1) + alpha*KL(Q0||P0) + beta*KL(Q1||P1)
        s.t.      c = KL(Q||u) + alpha*KL(Q0||u) + beta*KL(Q1||v) <= L.
    Convex and separable per block once a multiplier s is fixed: each block
    minimizer is the tilt of its target toward u (or v) with weight s/(1+s).
    The constraint value decreases monotonically in s, so bisection on s
    finds the active-budget solution; strong duality makes it exact.

    Cells with L <= 0 are infeasible (inf), and cells whose unconstrained
    optimum (s = 0) already lies in the ball are worth 0.  The remaining
    active cells are searched in chunks of _DUAL_CHUNK cells; the tilts are
    stored (d, K), so each max or sum over the alphabet is d - 1 vector
    operations, taken left to right.  Per active cell, the bracket [0, hi]
    starts at hi = 1 and hi doubles while the constraint at hi exceeds L, at
    most 70 times; only the cells still growing are evaluated.

    Branch and bound.  The tilts minimise the Lagrangian f + s*(c - L)
    exactly, so f + s*(c - L) at each evaluated hi is a lower bound on the
    cell's value (weak duality).  An evaluation with c <= L gives a feasible
    value f, which bounds from above what the cell's bisection reaches from
    there, since f grows with s.  The running minimum UB of these feasible
    values over all chunks (0 once any cell lies in the ball) bounds the
    matrix minimum from above.  A cell whose best lower bound, less the
    slack _BOUND_SLACK * (1 + s), exceeds UB cannot hold the minimum: it
    stops growing and reads +inf.  Of each chunk only the surviving cells'
    flat index, hi and bound are kept; after the last chunk they are
    filtered by the final UB and bisected, again in chunks of _DUAL_CHUNK,
    each from the hi its doubling reached.

    At most 90 bisection steps follow.  A step maps (lo, hi) to new values
    by a deterministic elementwise function, so once a step leaves every
    (lo, hi) of the chunk unchanged, all later steps would too: stopping
    there gives each cell's 90-step result bit for bit, whichever cells
    share its chunk (on the figure grids the stop comes after 53 or 54
    steps).  The excluded cells never reach such a fixed point, since their
    hi would keep halving.  The constraint alone drives the bisection; the
    objective is evaluated once, at the final hi.  So every finite cell
    equals a solve of that cell alone, and the matrix minimum and its first
    argmin, all that min_simplex_pair reads, are those of solving every
    cell; a 1 x 1 call is never pruned.
    """
    U = np.atleast_2d(Urows)
    V = np.atleast_2d(Vrows)
    L = lambda_matrix(inst.lam, U, V, inst.beta)  # (N, M)
    M = L.shape[1]
    Lflat = L.ravel()
    logu = np.log(U).T  # (d, N)
    logv = np.log(V).T  # (d, M)
    logP0 = np.log(inst.p0)[:, None]
    logP1 = np.log(inst.p1)[:, None]

    def blocks_of(cells):
        rows, cols = np.divmod(cells, M)
        return (
            (logP1, logu[:, rows], 1.0),
            (logP0, logu[:, rows], inst.alpha),
            (logP1, logv[:, cols], inst.beta),
        )

    out = np.full(Lflat.size, np.inf)
    ub = np.inf
    # flat index, hi and lower bound of each chunk's surviving active cells
    kept = [(np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))]
    feasible = np.flatnonzero(Lflat > 0.0)
    for start in range(0, feasible.size, _DUAL_CHUNK):
        cells = feasible[start : start + _DUAL_CHUNK]
        blocks = blocks_of(cells)
        budget = Lflat[cells]
        c0, _ = _tilted_blocks(np.zeros(cells.size), blocks)
        # the complement of "unconstrained optimum already inside the ball"
        active = ~(c0 <= budget)
        if not active.all():
            out[cells[~active]] = 0.0
            ub = 0.0
        cells, budget, blocks = cells[active], budget[active], _take(blocks, active)
        hi = np.ones(cells.size)
        bound = np.full(cells.size, -np.inf)
        grow = np.arange(cells.size)  # cells whose constraint at hi still exceeds L
        for _ in range(70):
            if grow.size == 0:
                break
            s = hi[grow]
            c, f = _tilted_blocks(s, _take(blocks, grow), objective=True)
            gap = c - budget[grow]
            bound[grow] = np.maximum(bound[grow], f + s * gap - _BOUND_SLACK * (1.0 + s))
            fits = gap <= 0.0
            if fits.any():
                ub = min(ub, float(f[fits].min()))
            grow = grow[~fits & ~(bound[grow] > ub)]
            hi[grow] *= 2.0
        live = ~(bound > ub)
        kept.append((cells[live], hi[live], bound[live]))
    cells, his, bounds = map(np.concatenate, zip(*kept))
    live = ~(bounds > ub)
    cells, his = cells[live], his[live]
    for start in range(0, cells.size, _DUAL_CHUNK):
        part = cells[start : start + _DUAL_CHUNK]
        blocks = blocks_of(part)
        budget = Lflat[part]
        hi = his[start : start + _DUAL_CHUNK]
        lo = np.zeros(part.size)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            c, _ = _tilted_blocks(mid, blocks)
            over = c > budget
            lo_next = np.where(over, mid, lo)
            hi_next = np.where(over, hi, mid)
            if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
                break
            lo, hi = lo_next, hi_next
        _, fstar = _tilted_blocks(hi, blocks, objective=True)
        out[part] = fstar
    return out.reshape(L.shape)


def _take(blocks, cells):
    return tuple((target, ref[:, cells], wt) for target, ref, wt in blocks)


def _tilted_blocks(s, blocks, objective=False):
    """Constraint value c, and with `objective` the objective f, at multiplier s.

    s: (K,) per cell; blocks: (target (d, 1), reference (d, K), weight) per
    block of the tuple.  Returns (c, f) with f None unless asked for.
    """
    w = s / (1.0 + s)
    keep = 1.0 - w
    c = np.zeros_like(s)
    f = np.zeros_like(s) if objective else None
    for target, ref, wt in blocks:
        lz = keep * target
        lz += w * ref
        mx = lz[0]
        for row in lz[1:]:
            mx = np.maximum(mx, row)
        lz -= mx
        z = np.exp(lz, out=lz)
        z /= _alphabet_sum(z)
        lq = np.log(np.where(z > 0, z, 1.0))
        gap = lq - ref
        gap *= z
        c += wt * _alphabet_sum(gap) / dv.LN2
        if objective:
            f += wt * _alphabet_sum(z * (lq - target)) / dv.LN2
    return c, f


def _alphabet_sum(x):
    # sum over axis 0 of a (d, K) array, left to right: the order in which
    # numpy reduces a short last axis, which fixed the recorded e_fix values
    total = x[0]
    for row in x[1:]:
        total = total + row
    return total


@dataclass(frozen=True)
class ExponentReport:
    renyi_term: float
    kappa: float
    mu: float
    nu: float
    e_fix: float
    e_seq: float
    e_semi1: float
    e_semi2: float
    kappa_note: str = ""

    def as_dict(self):
        return {
            "renyi_term": self.renyi_term,
            "kappa": self.kappa,
            "mu": self.mu,
            "nu": self.nu,
            "e_fix": self.e_fix,
            "e_seq": self.e_seq,
            "e_semi1": self.e_semi1,
            "e_semi2": self.e_semi2,
        }


def report(inst, cfg=SearchConfig()):
    """All exponent terms plus the four per-setup optima."""
    r = renyi_term(inst)
    ks = kappa_search(inst, cfg)
    k = ks.value
    if math.isinf(k):
        note = "analytic" if kappa_certified_infinite(inst) else "resolution-limited"
    else:
        note = ""
    m = mu(inst, cfg)
    n = nu(inst)
    f = e_fix(inst, cfg)
    e_seq = min(r, k)
    return ExponentReport(
        renyi_term=r,
        kappa=k,
        mu=m,
        nu=n,
        e_fix=f,
        e_seq=e_seq,
        e_semi1=min(e_seq, m),
        e_semi2=min(e_seq, n),
        kappa_note=note,
    )
