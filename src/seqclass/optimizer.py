"""Minimization of a pair score over the product of two probability simplices.

Strategy: enumerate an exact coarse grid and keep its least cell, then
re-grid L-infinity boxes around the incumbent; `box_schedule` gives each
round's half-width and density (2/m and REFINE_FACTOR * m after a grid at
density m).  The feasible sets arising from unions of lambda-balls are
non-convex, so global enumeration plus local refinement is the method of
record here.  The coarse pair grid is evaluated whole, as N x N matrices,
and so is the inner grid of the exponents' scaled-Renyi minima, twice as
dense at d = 2, so `check_pair_grid` bounds both before anything is
allocated; a box step's work is bounded by d, which
`exponents.ProblemInstance` holds to d <= 3 under a scaled-Renyi budget.

A search takes one score: score(A, B, cutoff) takes two row stacks of
shapes (N, d) and (M, d) and the incumbent value, and returns an (N, M)
matrix whose minimum and first argmin are the search's answer over A x B.
A cell reads +inf where it is infeasible, and may read +inf where it
cannot be the first least cell, or cannot go below the cutoff.  So when
the least cell lies below the cutoff it keeps its value and its place,
and otherwise no cell reads below the cutoff.  Each score owns its
pruning; the optimizer only takes the first argmin.  Scores must be
side-effect-free but for caches that keep every bit.  With `eps` set,
every grid point is clamped into the epsilon-floored simplex.
"""

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simplex import box_grid, grid_array, grid_count

#: cells N^2 of the largest coarse pair grid; one float64 N x N matrix of
#: this size takes 256 MiB
PAIR_CELL_LIMIT = 2**25
#: density growth from one box re-gridding round to the next
REFINE_FACTOR = 10


@dataclass(frozen=True)
class SearchConfig:
    coarse_m: Optional[int] = None  # default 200 for d=2, 60 for d=3+
    refine_rounds: int = 3

    def __post_init__(self):
        for name in ("coarse_m", "refine_rounds"):
            value = getattr(self, name)
            if value is not None:
                try:
                    object.__setattr__(self, name, operator.index(value))
                except TypeError:
                    raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.coarse_m is not None and self.coarse_m < 2:
            raise ValueError("coarse_m must be >= 2")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")

    def resolve_m(self, d):
        if self.coarse_m is not None:
            return self.coarse_m
        return 200 if d == 2 else 60


@dataclass(frozen=True)
class SearchResult:
    value: float
    argmin: Optional[tuple]  # None when no grid point is feasible


def inner_density(d, m):
    """Density of the inner (P0', P1') grid of the scaled-Renyi minima at
    coarse density m; they are smooth, so grid error is quadratic in the spacing."""
    return 2 * m if d == 2 else m


def check_pair_grid(d, m):
    """Raise ValueError if the pair grid at density m, or the inner pair
    grid at inner_density(d, m), is too large to evaluate whole."""
    n = grid_count(d, inner_density(d, m))  # the inner grid is the larger
    if n * n > PAIR_CELL_LIMIT:
        raise ValueError(
            f"pair grid too large: {n} points per block at d={d}, m={m} (inner density {inner_density(d, m)}), "
            f"{n * n} cells > {PAIR_CELL_LIMIT}; lower the coarse density"
        )


def box_schedule(density, rounds):
    """(half-width, density) of each box round after a grid at density."""
    for _ in range(rounds):
        halfwidth = 2.0 / density
        density *= REFINE_FACTOR
        yield halfwidth, density


def _best_over_pair(score, A, B, cutoff=np.inf):
    """The least cell of score(A, B, cutoff) and its pair: (value, a, b), its
    first argmin in flat order, or (inf, None, None) when every cell is
    +inf.  A value at or above the cutoff says only that no cell beats it."""
    s = score(A, B, cutoff)
    i, j = np.unravel_index(int(np.argmin(s)), s.shape)
    if not np.isfinite(s[i, j]):
        return np.inf, None, None
    return float(s[i, j]), A[i], B[j]


def min_simplex_pair(score, d, cfg=SearchConfig(), eps=None):
    """Minimize a pair score over the product of two simplex grids.

    The coarse grid's minimiser (a, b) is refined for cfg.refine_rounds
    rounds of `box_schedule`, each of up to six steps alternating a and b.
    A step re-grids one block's box with the other held fixed and keeps the
    box minimiser only if it beats the incumbent value, so the incumbent
    is the step's cutoff.  A round stops once two steps in a row, one per
    block, have moved nothing: each later step would repeat an earlier call
    on identical (a, b, value), so stopping changes no bit and no box pair
    is evaluated twice.
    """
    m = cfg.resolve_m(d)
    check_pair_grid(d, m)
    pts = grid_array(d, m, eps=eps)
    value, *pair = _best_over_pair(score, pts, pts)
    if pair[0] is None:
        return SearchResult(np.inf, None)
    for halfwidth, density in box_schedule(m, cfg.refine_rounds):
        moved = -1  # the last step that moved the incumbent
        for step in range(6):
            if step - moved > 2:
                break  # the last two steps, one per block, moved nothing
            k = step % 2
            blocks = [x[None, :] for x in pair]
            blocks[k] = box_grid(pair[k], halfwidth, density, eps)
            v, *best = _best_over_pair(score, *blocks, cutoff=value)
            if v < value:
                value, pair[k], moved = v, best[k], step
    return SearchResult(value, tuple(pair))
