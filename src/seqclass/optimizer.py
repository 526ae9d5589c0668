"""Constrained minimization over the product of two probability simplices.

Strategy: enumerate an exact coarse grid, filter by the constraint, then
re-grid an L-infinity box around the incumbent at increasing density.  The
feasible sets arising from unions of lambda-balls are non-convex, so global
enumeration plus local refinement is the method of record here.  The coarse
pair grid is evaluated whole, as N x N matrices, so `check_pair_grid` bounds
N before anything is allocated.  That admits d = 2 and d = 3 at their
default densities, and d = 4, 5, 6 only with coarse_m at most 30, 16, 11.

The objective and the constraint are pair callables: they take two row
stacks of shapes (N, d) and (M, d) and return an (N, M) matrix.  All
closures must be side-effect-free.  With `eps` set, every grid point is
clamped into the epsilon-floored simplex.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simplex import box_grid, grid_array, grid_count

#: cells N^2 of the largest coarse pair grid; one float64 N x N matrix of
#: this size takes 256 MiB
PAIR_CELL_LIMIT = 2**25


@dataclass(frozen=True)
class SearchConfig:
    coarse_m: Optional[int] = None  # default 200 for d=2, 60 for d=3+
    refine_rounds: int = 3
    refine_factor: int = 10

    def __post_init__(self):
        if self.coarse_m is not None and self.coarse_m < 2:
            raise ValueError("coarse_m must be >= 2")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if self.refine_factor < 2:
            raise ValueError("refine_factor must be >= 2")

    def resolve_m(self, d):
        if self.coarse_m is not None:
            return self.coarse_m
        return 200 if d == 2 else 60


@dataclass(frozen=True)
class SearchResult:
    value: float
    argmin: Optional[tuple]
    feasible_found: bool


ALWAYS_TRUE = lambda A, B: np.ones((A.shape[0], B.shape[0]), dtype=bool)


def check_pair_grid(d, m):
    """Raise ValueError if the pair grid at density m is too large to search."""
    n = grid_count(d, m)
    if n * n > PAIR_CELL_LIMIT:
        raise ValueError(
            f"pair grid too large: {n} points per block at d={d}, m={m} "
            f"({n * n} cells > {PAIR_CELL_LIMIT}); lower the coarse density"
        )


def _best_over_pair(objective, constraint, A, B):
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.inf, None, None
    feas = np.asarray(constraint(A, B), dtype=bool)
    obj = np.asarray(objective(A, B), dtype=np.float64)
    obj = np.where(feas, obj, np.inf)
    flat = int(np.argmin(obj))
    i, j = np.unravel_index(flat, obj.shape)
    if not np.isfinite(obj[i, j]):
        return np.inf, None, None
    return float(obj[i, j]), A[i], B[j]


def min_simplex_pair(objective, constraint, d, cfg=SearchConfig(), eps=None):
    """Minimize a pair objective over the product of two simplex grids.

    Refinement runs coordinate descent: each round, 3 sweeps alternately
    re-grid one block in a local box while the other is held fixed, and
    accept the box minimiser only if it improves on the incumbent.
    """
    m = cfg.resolve_m(d)
    check_pair_grid(d, m)
    pts = grid_array(d, m, eps=eps)
    value, a, b = _best_over_pair(objective, constraint, pts, pts)
    if a is None:
        return SearchResult(np.inf, None, False)
    density = m
    for _ in range(cfg.refine_rounds):
        halfwidth = 2.0 / density
        density *= cfg.refine_factor
        for _sweep in range(3):
            localA = box_grid(a, halfwidth, density, eps)
            v, a2, _ = _best_over_pair(objective, constraint, localA, b[None, :])
            if v < value:
                value, a = v, a2
            localB = box_grid(b, halfwidth, density, eps)
            v, _, b2 = _best_over_pair(objective, constraint, a[None, :], localB)
            if v < value:
                value, b = v, b2
    return SearchResult(value, (a, b), True)
