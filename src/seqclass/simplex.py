"""Finite-alphabet distributions, empirical types, sampling and simplex grids.

Distributions are plain 1-D numpy arrays ("Dist"): nonnegative entries that
sum to one.  Everything downstream (divergences, optimizers, the test bench)
works on these arrays, so validation lives here.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

SUM_TOL = 1e-12

#: hard cap on the number of grid points a single enumeration may produce
GRID_POINT_LIMIT = 50_000_000


def as_dist(p, name="p"):
    """Validate and return a probability vector as a float64 array.

    Raises ValueError on negative entries, length < 2, or a total that is
    not 1 within 1e-12.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a 1-D vector of length >= 2")
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    if abs(arr.sum() - 1.0) > SUM_TOL:
        raise ValueError(f"{name} does not sum to 1 (got {arr.sum()!r})")
    return arr


def check_eps(eps, d):
    """Validate an epsilon floor for alphabet size d (must lie in (0, 1/d))."""
    if not (0.0 < eps < 1.0 / d):
        raise ValueError(f"epsilon must be in (0, 1/{d}), got {eps}")
    return float(eps)


def satisfies_floor(p, eps):
    return bool(np.min(p) >= eps)


@dataclass(frozen=True)
class EmpiricalType:
    """Counts of each alphabet symbol in an n-sample sequence."""

    counts: tuple
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if sum(self.counts) != self.n:
            raise ValueError("counts must sum to n")

    @property
    def dist(self):
        return np.asarray(self.counts, dtype=np.float64) / self.n


def empirical(samples, d):
    """Empirical type of a sequence of alphabet indices in [0, d)."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("empty sample sequence")
    if samples.min() < 0 or samples.max() >= d:
        raise ValueError("sample index out of range")
    counts = np.bincount(samples, minlength=d)
    return EmpiricalType(tuple(int(c) for c in counts), int(samples.size))


def _philox(seed):
    # Philox is counter-based: identical seeds replay identical streams
    # regardless of how many other generators exist, which is what makes
    # parallel trials reproducible.
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))


def stream_seed(seed, *ids):
    """Derive a sub-stream seed from a base seed and integer identifiers.

    Stable under reordering of *other* streams: the value depends only on
    (seed, ids), so adding trials never reshuffles earlier ones.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & (2**63 - 1), spawn_key=tuple(int(i) for i in ids))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_iid(p, n, seed):
    """Draw n i.i.d. alphabet indices from p, deterministically for a seed.

    Inverse-CDF over the cumulative vector of p, driven by a counter-based
    generator.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = as_dist(p)
    cdf = np.cumsum(p)
    cdf[-1] = 1.0  # guard against rounding in the last bin
    u = _philox(seed).random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.intp)


def grid_count(d, m):
    return comb(m + d - 1, d - 1)


def compositions(d, m):
    """Iterate over all integer compositions (k_1,...,k_d) with sum m."""
    # stars and bars: positions of the d-1 bars among m+d-1 slots
    for bars in combinations(range(m + d - 1), d - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(m + d - 2 - prev)
        yield tuple(parts)


def grid_array(d, m, eps=None):
    """Dense (N, d) array of all grid points at density m, lexicographic order.

    With eps set, every point is clamped into the epsilon floor (duplicates
    are kept so indexing stays aligned with the raw compositions).
    """
    if grid_count(d, m) > GRID_POINT_LIMIT:
        raise ValueError(f"grid too large: C({m + d - 1},{d - 1}) points")
    if d == 2:
        k = np.arange(m + 1, dtype=np.float64)
        pts = np.column_stack([k, m - k]) / m
    else:
        pts = np.array(list(compositions(d, m)), dtype=np.float64) / m
    if eps is not None:
        pts = clamp_rows(pts, eps)
    return pts


def clamp_rows(pts, eps):
    """L1-nearest members of the epsilon-floored simplex, row by row.

    Deficient entries of each row of the (N, d) array are raised to eps; the
    surplus is taken from the remaining entries proportionally to their
    mass.  Iterates in case the renormalization pushes further entries below
    the floor.  Idempotent.
    """
    d = pts.shape[1]
    eps = check_eps(eps, d)
    out = pts.copy()
    frozen = np.zeros(pts.shape, dtype=bool)
    for _ in range(d):
        low = (out < eps) & ~frozen
        if not low.any():
            break
        frozen |= low
        budget = 1.0 - eps * frozen.sum(axis=1, keepdims=True)
        rest_mass = np.where(frozen, 0.0, pts).sum(axis=1, keepdims=True)
        safe = np.where(rest_mass > 0, rest_mass, 1.0)
        out = np.where(frozen, eps, pts * (budget / safe))
    return out


def box_grid(center, halfwidth, density, eps=None):
    """Grid points of spacing 1/density inside an L-inf box on the simplex.

    The first d-1 coordinates are gridded around `center`; the last takes
    the remaining mass.  Points more than 1e-12 below the floor (0, or eps
    when set) are dropped, and with eps set the rest are clamped into it.
    """
    d = center.size
    steps = int(np.ceil(halfwidth * density))
    offs = np.arange(-steps, steps + 1) / density
    axes = [center[i] + offs for i in range(d - 1)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    last = 1.0 - pts.sum(axis=1)
    pts = np.column_stack([pts, last])
    lo = eps if eps is not None else 0.0
    keep = (pts >= lo - 1e-12).all(axis=1)
    pts = pts[keep]
    if pts.shape[0] == 0:
        return pts.reshape(0, d)
    if eps is not None:
        pts = clamp_rows(pts, eps)
    return pts
