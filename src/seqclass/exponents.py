"""Exponent terms for universal classification under a type-I constraint
family lambda(P0', P1'): the Renyi term, kappa, mu, nu and the fixed-length
exponent, assembled into per-setup optimal type-II exponents.

Two constraint families are supported:

* ``ConstantLambda(lambda0)`` — g1 and mu have closed forms, and kappa and
  the fixed-length exponent are convex programs, solved exactly through
  their Lagrangian (`_join_budget_min`) with no grid.
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
from .optimizer import PAIR_CELL_LIMIT, SearchConfig, SearchResult, box_schedule, min_simplex_pair
from .simplex import as_dist, box_grid, box_mesh_size, check_eps, grid_array, grid_count, satisfies_floor


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
            raise ValueError(f"xi must lie in (0, 1], got {self.xi}")
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
    """(N,M) matrix of lambda over two row stacks of candidate pairs, or one
    such matrix per entry of stacks with leading batch axes."""
    P0rows = np.atleast_2d(P0rows)
    P1rows = np.atleast_2d(P1rows)
    if isinstance(spec, ConstantLambda):
        batch = np.broadcast_shapes(P0rows.shape[:-2], P1rows.shape[:-2])
        return np.full((*batch, P0rows.shape[-2], P1rows.shape[-2]), spec.lambda0)
    return spec.xi * (np.swapaxes(dv.renyi_matrix(P1rows, P0rows, beta), -1, -2) + spec.offset)


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
#: most two-box cells one call of g1's polish scores; g1 polishes its rows
#: in stacks of as many rows as fit
_POLISH_CELLS = 2**20
#: most sums one pass of `_min_plus` holds (1 MiB)
_MIN_PLUS_CELLS = 2**17
#: columns of a pair grid whose constraint kappa's and mu's scores
#: evaluate together
CONSTRAINT_BATCH = 8


def _inner_density(inst, cfg):
    # density of the fixed (P0', P1') grids used when evaluating g1 and
    # friends for the scaled-Renyi family; the inner minima are smooth, so
    # grid error is quadratic in the spacing
    m = cfg.resolve_m(inst.d)
    return 2 * m if inst.d == 2 else m


def _inner_table(inst, cfg, rows=None):
    """The inner grid of the scaled-Renyi minima and -lambda on it: (pg, nlam)
    with nlam[i, j] = -lambda(rows_i, pg_j), rows the grid by default, so
    every slot minimum adds (x - y and x + (-y) round alike).  A search
    builds it once and hands it to every call that scores a grid."""
    pg = grid_array(inst.d, _inner_density(inst, cfg), eps=inst.eps)
    lam = lambda_matrix(inst.lam, pg if rows is None else rows, pg, inst.beta)
    return pg, np.negative(lam, out=lam)


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
    inner grid and lambda on it are built once per call, and the rows are
    scored and polished in stacks of at most _POLISH_CELLS two-box cells;
    every cell is computed from its own rows, so a row's score does not
    depend on the rest of its stack.
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
    pg, nlam = _inner_table(inst, cfg)  # nlam: (k0, k1)
    step = max(1, _POLISH_CELLS // _polish_side(inst, cfg) ** 2)
    out = np.empty(len(Q))
    for start in range(0, len(Q), step):
        rows = slice(start, start + step)
        a = wx * dv.kl_matrix(Q[rows], pg) + w0 * dv.kl_matrix(Q0[rows], pg)  # (R, k0)
        b = w1 * dv.kl_matrix(Q1[rows], pg)  # (R, k1)
        scores = a + _min_plus(b, nlam)
        j = scores.argmin(axis=1)
        l = (b + nlam[j]).argmin(axis=1)
        # local polish around each row's argmin pair; the objective is
        # smooth in (P0', P1') so a couple of shrinking box passes suffice
        score = partial(_g1_box, Q[rows], Q0[rows], Q1[rows], (wx, w0, w1), inst)
        polished = _polish(score, (pg[j], pg[l]), k, inst.eps)
        out[rows] = np.minimum(scores[np.arange(j.size), j], polished)
    return float(out[0]) if one else out


def _min_plus(rows, table):
    """t[i, j] = min over k of rows[i, k] + table[j, k]: every slot minimum of
    g1, kappa and mu, over blocks of as many rows as fit _MIN_PLUS_CELLS
    sums (at least one).  The minimum is exact, so no order moves a bit."""
    step = max(1, _MIN_PLUS_CELLS // table.size)
    t = np.empty((rows.shape[0], table.shape[0]))
    for start in range(0, rows.shape[0], step):
        t[start : start + step] = (rows[start : start + step, None, :] + table[None, :, :]).min(axis=2)
    return t


def _g1_box(Q, Q0, Q1, weights, inst, U, V):
    """The weighted score of each tuple row r over its P0' rows U[r] and P1'
    rows V[r]:
        wx*KL(Q||P0') + w0*KL(Q0||P0') + w1*KL(Q1||P1') - lambda(P0', P1')
    as an (R, |U[r]|, |V[r]|) array, with g1's weights = (wx, w0, w1); Q, Q0
    and Q1 are (R, d) and U, V (R, S, d) stacks."""
    wx, w0, w1 = weights
    lam = lambda_matrix(inst.lam, U, V, inst.beta)
    a = (wx * dv.kl_matrix(Q[:, None], U) + w0 * dv.kl_matrix(Q0[:, None], U))[:, 0]
    b = w1 * dv.kl_matrix(Q1[:, None], V)[:, 0]
    return a[:, :, None] + b[:, None, :] - lam


def check_g1_polish(inst, cfg=SearchConfig()):
    """Raise ValueError if g1's polish could score more than PAIR_CELL_LIMIT
    pairs for one row in one round.

    The round scores every pair of two box grids; each box is bounded by
    its mesh size, so nothing is allocated.  That admits d = 2 and d = 3 at
    every density; from d = 4 on a box holds tens of thousands of points.
    A constant budget never polishes.
    """
    if isinstance(inst.lam, ConstantLambda):
        return
    side = _polish_side(inst, cfg)
    if side * side > PAIR_CELL_LIMIT:
        raise ValueError(
            f"g1 polish too large at d={inst.d}: two boxes of up to {side} points "
            f"make {side * side} cells > {PAIR_CELL_LIMIT}"
        )


def _polish_side(inst, cfg):
    # the widest mesh of a polish round's box, a bound on box_grid's rows
    return max(box_mesh_size(inst.d, *box) for box in box_schedule(_inner_density(inst, cfg), _POLISH_ROUNDS))


def check_kappa_refinement(inst, cfg=SearchConfig()):
    """Raise ValueError if a refinement step of kappa's scaled-Renyi pair
    search could score more than PAIR_CELL_LIMIT cells.

    A step that re-grids the Q0 block scores every point of its box against
    the inner grid (`_g1_diag`); each box is bounded by its mesh
    size, so nothing is allocated.  At the default three rounds that admits
    d = 2 and d = 3 at their default densities, d = 4 up to coarse_m 12 and
    no d >= 5.
    """
    inner = grid_count(inst.d, _inner_density(inst, cfg))
    for halfwidth, density in box_schedule(cfg.resolve_m(inst.d), cfg.refine_rounds):
        box = box_mesh_size(inst.d, halfwidth, density)
        if box * inner > PAIR_CELL_LIMIT:
            raise ValueError(
                f"kappa refinement too large at d={inst.d}: a box of up to {box} points "
                f"against {inner} inner grid points makes {box * inner} cells > "
                f"{PAIR_CELL_LIMIT}; lower the coarse density"
            )


def _polish(score, centers, density, eps):
    """Lowest score of each row over the _POLISH_ROUNDS rounds of box
    re-gridding: an (R,) array.

    centers holds one (R, d) stack of centres per block.  Each round of
    `box_schedule` grids a box around every row's centre of each block in
    one `box_grid` call, and scores every row's combinations in one call:
    score takes one (R, S, d) stack per block and returns an array with a
    row axis, then one axis per block, each cell computed from its own
    rows.  A box's padding copies its first point bit for bit, so a padded
    cell scores exactly like a kept cell that comes before it.  Each row
    takes its first argmin, which is therefore never padding and is the
    one a call on that row alone takes, and moves its centres there.
    """
    rows = np.arange(centers[0].shape[0])
    best = np.full(rows.size, np.inf)
    for halfwidth, density in box_schedule(density, _POLISH_ROUNDS):
        boxes = [box_grid(c, halfwidth, density, eps) for c in centers]
        s = score(*boxes)
        flat = s.reshape(rows.size, -1)
        at = flat.argmin(axis=1)
        best = np.minimum(best, flat[rows, at])
        centers = [box[rows, i] for box, i in zip(boxes, np.unravel_index(at, s.shape[1:]))]
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


def _join_budget_min(inst, w):
    """min over (A, B) of alpha*KL(A||P0) + w*KL(B||P1) subject to
    weighted_join(alpha, A, 1, B) <= lambda0, a constant budget: (value, A, B).
    kappa has w = 1 + beta and (A, B) = (Q0, Q1); e_fix w = 1 and (Q0, Q).

    A convex program (the join is jointly convex), solved through its
    Lagrangian at the multiplier of `dv.cell_multiplier`, with
    `_join_fixed_point` warm-started from the last V.  The value is 0, at
    (P0, P1), exactly when GJS(P0, P1, alpha) <= lambda0, and it is that
    of A = B = (alpha*P0 + P1)/(1+alpha), the s -> inf limit, if no s fits.
    """
    a, lam0 = inst.alpha, inst.lam.lambda0
    P0, P1 = inst.p0, inst.p1
    if dv.gjs_value(P0, P1, a) <= lam0:
        return 0.0, P0, P1
    V = (a * P0 + P1) / (1.0 + a)
    best = (a * dv.kl(V, P0) + w * dv.kl(V, P1), V, V)

    def evaluate(s):
        nonlocal V, best
        A, B, V, dc = _join_fixed_point(inst, w, s, V)
        c = dv.weighted_join(a, A, 1.0, B)
        f = a * dv.kl(A, P0) + w * dv.kl(B, P1)
        if c <= lam0:
            best = (f, A, B)
        return c, f, dc

    dv.cell_multiplier(evaluate, lam0)
    return best


def _join_fixed_point(inst, w, s, V):
    """Minimise alpha*KL(A||P0) + w*KL(B||P1) + s*(alpha*KL(A||V) + KL(B||V))
    from V by alternating closed forms (Csiszar and Tusnady, 1984): A tilts
    P0 toward V with weight s/(1+s), B tilts P1 toward V with weight
    s/(w+s), both in one `dv.tilt` call, and V = F(V) = (alpha*A +
    B)/(1+alpha).  Returns (A, B, V, dc/ds).
    The fixed point lies in the eps floor, as P0 and P1 do: Hoelder bounds
    a tilt's normaliser by 1, so where V_x < eps both tilts exceed V_x, and
    so would F(V)_x.  F contracts slowly for large s, so each step is a
    Newton step on V = F(V) (dX_x/dV_y = t*X_x*(delta_xy - X_y)/V_y for a
    tilt X of weight t), or F itself where Newton leaves the simplex.

    dc/ds, in bits, follows the fixed point: dV/ds = (I - J)^-1 dF/ds, with
    the Newton step's I - J; a tilt X of P toward V with weight t moves by
    X*(g - E_X[g]), g = t'(s)*log(V/P) + t*dV/V; and the join is a minimum
    over its mixture F, so dc/ds = alpha*<log(A/F), dA> + <log(B/F), dB>.
    """
    a = inst.alpha
    t = np.array([s / (1.0 + s), s / (w + s)])
    slopes = np.array([a, 1.0]) * t / (1.0 + a)
    eye = np.eye(V.size)
    targets = np.log(np.stack([inst.p0, inst.p1]))[:, :, None]  # (2, d, 1)
    for _ in range(50):
        T = dv.tilt(targets, np.log(V)[:, None], t[:, None, None])[..., 0]
        F = (a * T[0] + T[1]) / (1.0 + a)
        jac = np.diag(slopes @ (T / V)) - (slopes[:, None] * T).T @ (T / V)
        if np.abs(F - V).max() <= dv.CELL_TOL:
            break
        newton = V + np.linalg.solve(eye - jac, F - V)
        V = newton if (newton > 0.0).all() else F
    tilt = lambda g: T * (g - (T * g).sum(axis=1, keepdims=True))
    toward = np.array([[1.0 / (1.0 + s) ** 2], [w / (w + s) ** 2]]) * np.log(V / np.stack([inst.p0, inst.p1]))
    dV = np.linalg.solve(eye - jac, np.array([a, 1.0]) @ tilt(toward) / (1.0 + a))
    dT = tilt(toward + t[:, None] * dV / V)
    return T[0], T[1], F, np.array([a, 1.0]) @ (np.log(T / F) * dT).sum(axis=1) / dv.LN2


def kappa(inst, cfg=SearchConfig()):
    return kappa_search(inst, cfg).value


def kappa_search(inst, cfg=SearchConfig()):
    """inf over (Q0, Q1) in the eps floor with g1(Q1, Q0, Q1) < 0 of
    (1+beta)*KL(Q1||P1) + alpha*KL(Q0||P0)."""
    if isinstance(inst.lam, ConstantLambda):
        # g1(Q1, Q0, Q1) < 0 reads weighted_join(alpha, Q0, 1, Q1) < lambda0
        value, q0, q1 = _join_budget_min(inst, 1.0 + inst.beta)
        return SearchResult(value, (q0, q1))
    if kappa_certified_infinite(inst):
        return SearchResult(math.inf, None)
    check_kappa_refinement(inst, cfg)
    score = _constrained(_separable(inst, 1.0 + inst.beta), *_g1_diag(inst, cfg))
    return min_simplex_pair(score, inst.d, cfg, eps=inst.eps)


def _separable(inst, w):
    """alpha*KL(A||P0) + w*KL(B||P1): kappa's (w = 1 + beta) and mu's (w = beta) pair objective."""
    a, P0, P1 = inst.alpha, inst.p0, inst.p1
    return lambda A, B: a * dv.kl(A, P0)[:, None] + w * dv.kl(B, P1)[None, :]


def _constrained(objective, lead, per_row):
    """The pair score of kappa's and mu's searches: objective(A, B)[i, j]
    where the constraint value g[i, j] = min over the P0' slot k of
    lead(A)[i, k] + per_row(B)[j, k] is negative, +inf elsewhere; lead and
    per_row map a row stack to one row of k values per row.

    The objective is evaluated whole; the constraint only on the columns
    of B that can still win.  Columns are visited in ascending order of
    their least objective, CONSTRAINT_BATCH at a time, while that least
    value is <= the best feasible value found so far (at first the
    cutoff): every cell of a later column lies above it and reads +inf.
    So when the least cell lies below the cutoff, it and its first flat
    index are those of evaluating every cell.  A call computes lead(A)
    once, when it visits its first column.  The
    box steps meet the incumbent B row again and again, so per_row is kept
    for every B row met, by its bytes; each is a row's own, so a kept one
    has the bits of a fresh one.
    """
    known = {}

    def score(A, B, cutoff):
        obj = objective(A, B)
        colmin = obj.min(axis=0)
        order = np.argsort(colmin, kind="stable")
        out = np.full(obj.shape, np.inf)
        best, head = cutoff, None
        for start in range(0, order.size, CONSTRAINT_BATCH):
            cols = order[start : start + CONSTRAINT_BATCH]
            cols = cols[colmin[cols] <= best]
            if cols.size == 0:
                break
            if head is None:
                head = lead(A)
            rows = B[cols]
            keys = [row.tobytes() for row in rows]
            fresh = {key: i for i, key in enumerate(keys) if key not in known}
            if fresh:
                known.update(zip(fresh, per_row(rows[list(fresh.values())])))
            g = _min_plus(head, np.array([known[key] for key in keys]))
            out[:, cols] = np.where(g < 0.0, obj[:, cols], np.inf)
            best = min(best, float(out[:, cols].min()))
        return out

    return score


def _g1_diag(inst, cfg):
    """(lead, per_row) of kappa_search's constraint g(Q0_i, Q1_j) =
    g1(Q1_j, Q0_i, Q1_j) for the scaled-Renyi family, unpolished, over the
    grid of `_inner_table`: the least sum over P0' of lead =
    alpha*KL(Q0_i||P0') and per_row = u(Q1_j), where u = KL(Q1||P0') + the
    P1'-slot minimum of beta*KL(Q1||P1') - lambda."""
    pg, nlam = _inner_table(inst, cfg)

    def u(Q1rows):
        c1 = dv.kl_matrix(Q1rows, pg)
        return c1 + _min_plus(inst.beta * c1, nlam)

    return (lambda Q0rows: inst.alpha * dv.kl_matrix(Q0rows, pg)), u


def mu(inst, cfg=SearchConfig()):
    return mu_search(inst, cfg).value


def mu_search(inst, cfg=SearchConfig()):
    """Semi-sequential-1 training-limitation term.

    inf over (Q0, Q1) with g(Q0, Q1) < 0 of alpha*KL(Q0||P0) + beta*KL(Q1||P1),
    where g relaxes only the P1' slot:
        g(Q0, Q1) = inf over P1' in the eps floor of
            alpha*KL(Q0||P1) + beta*KL(Q1||P1') - lambda(P1, P1').
    The puncture P1' != P1 is closed via the continuous lambda extension.

    Constant lambda: Q1 = P1 zeroes both of its terms, leaving the binary
    trade-off mu = alpha * bht_tradeoff(P1, P0, lambda0/alpha), which is 0
    when lambda0/alpha >= KL(P0||P1).
    """
    a, b = inst.alpha, inst.beta
    P0, P1 = inst.p0, inst.p1
    if isinstance(inst.lam, ConstantLambda):
        q0 = dv.bht_minimizer(P1, P0, inst.lam.lambda0 / a)
        return SearchResult(a * dv.kl(q0, P0), (q0, P1))
    return min_simplex_pair(_constrained(_separable(inst, b), *_mu_g(inst, cfg)), inst.d, cfg)


def _mu_g(inst, cfg):
    """(lead, per_row) of mu_search's constraint g(Q0_i, Q1_j) =
    alpha*KL(Q0_i||P1) + h(Q1_j) (see `_mu_inner`), a slot minimum whose P0'
    slot holds P1 alone."""
    P1 = inst.p1
    table = _inner_table(inst, cfg, rows=P1[None, :])
    return (lambda A: inst.alpha * dv.kl(A, P1)[:, None]), (lambda B: _mu_inner(B, inst, cfg, table)[:, None])


def _mu_inner(Q1rows, inst, cfg, table):
    """h(Q1) = inf over P1' of beta*KL(Q1||P1') - lambda(P1, P1') for each
    row of Q1rows, over the inner grid and -lambda row of `_inner_table(inst,
    cfg, rows=P1[None, :])`, then polished around each row's grid argmin;
    the polish takes every row at once.  Each row's value is that of a call
    on that row alone, bit for bit."""
    pg, nlam = table
    scores = inst.beta * dv.kl_matrix(Q1rows, pg) + nlam[0][None, :]
    h = scores.min(axis=1)
    # polish each row's inner minimum (smooth in P1')
    centers = pg[scores.argmin(axis=1)]
    polished = _polish(partial(_mu_box, Q1rows, inst), (centers,), _inner_density(inst, cfg), inst.eps)
    return np.minimum(h, polished)


def _mu_box(Q1rows, inst, V):
    """The objective of h for each Q1 row r over its P1' rows V[r]: an (R, S)
    array from an (R, S, d) stack."""
    lam = lambda_matrix(inst.lam, inst.p1[None, :], V, inst.beta)[:, 0]
    return inst.beta * dv.kl_matrix(Q1rows[:, None], V)[:, 0] - lam


def nu(inst):
    """Semi-sequential-2 term: binary trade-off at budget lambda(P0, P1)."""
    return dv.bht_tradeoff(inst.p0, inst.p1, lambda_eval(inst.lam, inst.p0, inst.p1, inst.beta))


def e_fix(inst, cfg=SearchConfig()):
    return e_fix_search(inst, cfg).value


def e_fix_search(inst, cfg=SearchConfig()):
    """Fixed-length exponent.

    inf over tuples (Q, Q0, Q1) with g1(Q, Q0, Q1) < 0 of
        KL(Q||P1) + alpha*KL(Q0||P0) + beta*KL(Q1||P1).

    Constant lambda: the Q1 block is unconstrained and collapses to P1,
    leaving the convex problem of `_join_budget_min` over (Q0, Q).
    Scaled-Renyi: swap the infima — search candidate pairs (P0', P1') and,
    for each, solve the convex inner problem (minimize the objective subject
    to the tuple lying in that pair's lambda-ball) through its Lagrangian,
    by a safeguarded Newton search on the multiplier that stops at a
    duality gap of 1e-12 * (1 + value); all block minimizers are tilted
    families.  Each grid of pairs is solved by branch and bound
    (_efix_dual_matrix), starting from the incumbent value: a pair whose
    Lagrangian lower bound exceeds the least feasible value known, by more
    than a slack of 1e-9 * (1 + s), is never searched.  The grid's minimum
    and argmin, and so the result, are those of solving every pair.
    """
    if isinstance(inst.lam, ConstantLambda):
        value, q0, q = _join_budget_min(inst, 1.0)
        return SearchResult(value, (q, q0, inst.p1))
    score = lambda A, B, cutoff: _efix_dual_matrix(A, B, inst, cutoff)
    return min_simplex_pair(score, inst.d, cfg, eps=inst.eps)


#: cells of the e_fix dual solved together.  The three blocks of a
#: multiplier-search chunk are tilted in one pass over (3, d, K) arrays; at
#: 2048 cells the dual's peak memory on the fig1 coarse grid (1.6 MiB)
#: stays below that of tilting one (d, K) block at a time over 4096 cells
_DUAL_CHUNK = 2048
#: slack of the Lagrangian bound per unit of (1 + s), where s is the
#: multiplier it was taken at: about 1e5 times the rounding error of the
#: bound and of f at the feasible multiplier where the cell's own search
#: stops
_BOUND_SLACK = 1e-9
#: duality gap s*(L - c), per unit of (1 + f), at which a cell's multiplier
#: search stops: f is then within that gap of the cell's exact value
_DUAL_GAP = 1e-12


def _efix_dual_matrix(Urows, Vrows, inst, cutoff=np.inf):
    """For each candidate pair (P0', P1'), the exact inner fixed-length value,
    or +inf where the Lagrangian bound shows it cannot be the minimum, or
    cannot go below the cutoff.

    Inner problem at pair (u, v) with budget L = lambda(u, v):
        minimize  f = KL(Q||P1) + alpha*KL(Q0||P0) + beta*KL(Q1||P1)
        s.t.      c = KL(Q||u) + alpha*KL(Q0||u) + beta*KL(Q1||v) <= L.
    Convex and separable per block once a multiplier s is fixed: each block
    minimizer is the tilt of its target toward u (or v) with weight s/(1+s).
    The constraint value decreases monotonically in s, so a search on s
    finds the active-budget solution; strong duality makes it exact.

    Cells with L <= 0 are infeasible (inf), and cells whose unconstrained
    optimum (s = 0) already lies in the ball are worth 0.  Per remaining
    active cell, the bracket [0, hi] starts at hi = 1 and hi doubles while
    the constraint at hi exceeds L, at most 70 times; only the cells still
    growing are evaluated, in chunks of _DUAL_CHUNK cells.

    Shared multipliers.  The s = 0 test and every doubling step evaluate
    all their cells at one multiplier: 0, or 2**t at step t, since hi
    starts at 1 for every cell and doubles for all growing cells together.
    The tilts of blocks Q and Q0 depend only on (s, u) and that of Q1 only
    on (s, v), so at each such s `_block_terms` tilts the N rows of U and
    the M rows of V once, and a cell's c and f are the sums of its blocks
    toward u and toward v, added in block order.  The terms of a multiplier
    are computed once per call and shared by every chunk.  Every operation
    of the kernel is elementwise per (block, letter, cell), so each cell
    gets the bits of `_block_terms` on its own references.

    Branch and bound.  The tilts minimise the Lagrangian f + s*(c - L)
    exactly, so f + s*(c - L) at each evaluated hi is a lower bound on the
    cell's value (weak duality).  An evaluation with c <= L gives a feasible
    value f, which bounds from above what the cell's search reaches from
    there, since f grows with s.  UB starts at the cutoff and is the running
    minimum of these feasible values over all chunks (0 once any cell lies
    in the ball).  A cell whose best lower bound, less the slack
    _BOUND_SLACK * (1 + s), exceeds UB cannot hold the minimum, or cannot
    go below the cutoff: it stops growing and reads +inf.  Of each chunk
    only the surviving cells' flat index, hi, c and f at hi, and bound are
    kept; after the last chunk they are filtered by the final UB and
    solved, again in chunks of _DUAL_CHUNK.  A chunk tilts its cells' own
    references (3, d, K) together through `_block_terms`, so each max or
    sum over the alphabet is d - 1 vector operations, taken left to right,
    for all three blocks at once.

    Multiplier search.  Each chunk runs `dv.multiplier_search` from its
    cells' doubling, with one `_block_terms` pass per step.  A cell's
    value depends only on its own data, so every finite cell equals a solve
    of that cell alone, and the matrix minimum and its first argmin, all
    that min_simplex_pair reads, are those of solving every cell whenever
    that minimum is below the cutoff, since then every upper bound found
    is at or above it.  A 1 x 1 call with no cutoff is never pruned.
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
    # the blocks Q, Q0, Q1 of the tuple: targets, and weights in the objective
    targets = np.stack([logP1, logP0, logP1])  # (3, d, 1)
    weights = np.array([[1.0], [inst.alpha], [inst.beta]])  # (3, 1)
    # blocks Q and Q0 tilt toward u, block Q1 toward v
    toward_u = targets[:2], np.stack([logu, logu]), weights[:2]
    toward_v = targets[2:], logv[None], weights[2:]
    shared = {}  # multiplier -> its reference terms, for this call only

    def at_shared(s, cells):
        # (c, f) of the cells at a multiplier s that all of them share
        if s not in shared:
            shared[s] = [dv.ordered_sum(t) for blocks in (toward_u, toward_v) for t in _block_terms(s, blocks)]
        cu, fu, cv, fv = shared[s]
        rows, cols = np.divmod(cells, M)
        return cu[rows] + cv[cols], fu[rows] + fv[cols]

    out = np.full(Lflat.size, np.inf)
    ub = cutoff
    # flat index, hi, c and f at hi, and lower bound of each chunk's
    # surviving active cells
    kept = [(np.empty(0, dtype=np.intp),) + (np.empty(0),) * 4]
    feasible = np.flatnonzero(Lflat > 0.0)
    for start in range(0, feasible.size, _DUAL_CHUNK):
        cells = feasible[start : start + _DUAL_CHUNK]
        budget = Lflat[cells]
        c0, _ = at_shared(0.0, cells)
        # the complement of "unconstrained optimum already inside the ball"
        active = ~(c0 <= budget)
        if not active.all():
            out[cells[~active]] = 0.0
            ub = 0.0
        cells, budget = cells[active], budget[active]
        hi = np.ones(cells.size)
        chi = np.full(cells.size, np.nan)  # c at hi, once hi fits
        fhi = np.full(cells.size, np.inf)  # f at hi, once hi fits
        bound = np.full(cells.size, -np.inf)
        grow = np.arange(cells.size)  # cells whose constraint at hi still exceeds L
        for t in range(70):
            if grow.size == 0:
                break
            s = hi[grow]  # 2**t for every growing cell
            c, f = at_shared(2.0**t, cells[grow])
            gap = c - budget[grow]
            bound[grow] = np.maximum(bound[grow], f + s * gap - _BOUND_SLACK * (1.0 + s))
            fits = gap <= 0.0
            if fits.any():
                ub = min(ub, float(f[fits].min()))
                chi[grow[fits]], fhi[grow[fits]] = c[fits], f[fits]
            grow = grow[~fits & ~(bound[grow] > ub)]
            hi[grow] *= 2.0
        live = ~(bound > ub)
        kept.append((cells[live], hi[live], chi[live], fhi[live], bound[live]))
    cells, his, chis, fhis, bounds = map(np.concatenate, zip(*kept))
    live = ~(bounds > ub)
    cells, his, chis, fhis = cells[live], his[live], chis[live], fhis[live]
    for start in range(0, cells.size, _DUAL_CHUNK):
        chunk = slice(start, start + _DUAL_CHUNK)
        part = cells[chunk]
        rows, cols = np.divmod(part, M)
        blocks = targets, np.stack([logu[:, rows], logu[:, rows], logv[:, cols]]), weights
        evaluate = lambda s, blocks=blocks: [dv.ordered_sum(t) for t in _block_terms(s, blocks, slope=True)]
        _, out[part] = dv.multiplier_search(evaluate, Lflat[part], his[chunk], chis[chunk], fhis[chunk], _DUAL_GAP)
    return out.reshape(L.shape)


def _block_terms(s, blocks, slope=False):
    """The weighted terms of c and f, block by block: (B, K) arrays, one row
    per block and one column per reference.  With `slope` the terms of
    dc/ds follow: -weight * Var_z(ref - target) / ((1 + s)^3 ln 2) for a
    block whose tilt is z.  Adding a column's terms in block order
    (`dv.ordered_sum`) gives its c, f and dc/ds.

    s is one multiplier per reference (K,) or one for all of them (a
    float); blocks are targets (B, d, 1), references (B, d, K) and weights
    (B, 1), one entry per block of the tuple, as logs.  Every block is
    tilted in one `dv.tilt` pass.  Each operation is elementwise per
    (block, letter, reference), so a column's terms depend only on its s
    and its references.  f and the slope reuse the (B, d, K) array of c
    once it is summed, so they leave c and f bit for bit and add no array
    of that size.
    """
    targets, refs, weights = blocks
    z = dv.tilt(targets, refs, s / (1.0 + s))  # (B, d, K)
    lq = np.where(z > 0, z, 1.0)
    np.log(lq, out=lq)
    gap = lq - refs
    gap *= z
    to_ref = dv.ordered_sum(gap.swapaxes(0, 1))  # KL(z || ref) in nats
    c = weights * to_ref / dv.LN2
    gap = np.subtract(lq, targets, out=gap)
    gap *= z
    to_target = dv.ordered_sum(gap.swapaxes(0, 1))
    f = weights * to_target / dv.LN2
    if not slope:
        return c, f
    # log z is affine in (target, ref), so E_z[ref - target] is the
    # difference of the two divergences
    x = np.subtract(refs, targets, out=gap)
    x *= x
    x *= z
    var = dv.ordered_sum(x.swapaxes(0, 1)) - (to_target - to_ref) ** 2
    return c, f, -weights * var / ((1.0 + s) ** 3 * dv.LN2)


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
