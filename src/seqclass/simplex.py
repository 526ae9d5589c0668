"""Finite-alphabet distributions, empirical types, sampling and simplex grids.

Distributions are plain 1-D numpy arrays ("Dist"): nonnegative entries that
sum to one.  Everything downstream (divergences, optimizers, the test bench)
works on these arrays, so validation lives here.
"""

from math import comb, prod

import numpy as np

SUM_TOL = 1e-12

#: hard cap on the number of mesh points a single grid may lay out
GRID_POINT_LIMIT = 50_000_000


def as_dist(p, name="p"):
    """Validate and return a probability vector as a float64 array.

    Raises ValueError on negative entries, length < 2, or a total that is
    not 1 within 1e-12; a NaN or infinite entry makes the total miss 1.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a 1-D vector of length >= 2")
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    if not abs(arr.sum() - 1.0) <= SUM_TOL:
        raise ValueError(f"{name} does not sum to 1 (got {arr.sum()!r})")
    return arr


def check_eps(eps, d):
    """Validate an epsilon floor for alphabet size d (must lie in (0, 1/d))."""
    if not (0.0 < eps < 1.0 / d):
        raise ValueError(f"epsilon must be in (0, 1/{d}), got {eps}")
    return float(eps)


def satisfies_floor(p, eps):
    return bool(np.min(p) >= eps)


_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1

# SeedSequence's pool size and hash constants (numpy.random.SeedSequence)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10: round multipliers and the Weyl increments of the key
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _chain(start, mult, calls):
    """The multiplier chain of `calls` hashmix calls: call i xors with
    entry i and multiplies by entry i + 1."""
    out = [start]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hashmix(v, xor, mult):
    """SeedSequence's hashmix of v, an int below 2**32 or a uint32 array:
    xor with one constant of the multiplier chain, multiply by the next."""
    v = (v ^ xor) * mult & _MASK32
    return v ^ (v >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _id_words(ids, rows):
    """The spawn key of each row as uint32 words, ragged: an id below 2**32
    is one word, a larger one two (low word first).  Returns the (rows, W)
    word matrix and each row's word count."""
    words = np.zeros((rows, 2 * len(ids)), dtype=np.uint32)
    count = np.zeros(rows, dtype=np.intp)
    at = np.arange(rows)
    for col in ids:
        words[at, count] = (col & np.uint64(_MASK32)).astype(np.uint32)
        wide = np.flatnonzero(col >> np.uint64(32))
        words[wide, count[wide] + 1] = (col[wide] >> np.uint64(32)).astype(np.uint32)
        count += 1
        count[wide] += 1
    return words[:, : count.max(initial=0)], count


def stream_keys(seed, *ids):
    """Philox keys of the sub-streams (seed, *ids), one per broadcast row.

    Each key is SeedSequence(entropy=seed & (2**63 - 1), spawn_key=ids)
    .generate_state(1, np.uint64)[0], computed in uint32 arithmetic: the
    seed's stage once, on ints, and the spawn words on arrays of rows.
    The ids are integers in [0, 2**64) or arrays of them; the result has
    their broadcast shape.  A key depends only on (seed, ids), so adding
    streams never reshuffles earlier ones.
    """
    cols = []
    for i in ids:
        a = np.asarray(i)
        if a.dtype.kind not in "iu" or (a < 0).any():
            raise ValueError("stream ids must be integers in [0, 2**64) or arrays of them")
        cols.append(a.astype(np.uint64))
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    rows = int(np.prod(shape))
    words, count = _id_words([np.broadcast_to(c, shape).ravel() for c in cols], rows)
    # hashmix call i xors with chain[i] and multiplies by chain[i + 1]: the
    # seed stage makes 16 calls, then each spawn word one per pool word
    chain = _chain(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * words.shape[1])
    # the seed's words, zero-filled to the pool size, then mixed together;
    # this stage is the same for every row, so it runs once, on ints
    entropy = int(seed) & (2**63 - 1)
    seed_words = [entropy & _MASK32, entropy >> 32] + [0] * (_POOL - 2)
    pool = [_hashmix(w, chain[i], chain[i + 1]) for i, w in enumerate(seed_words)]
    call = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain[call], chain[call + 1]))
                call += 1
    # then every spawn word of a row into each pool word, the pool words as
    # the rows of one (4, rows) stack; rows with fewer words keep their
    # pool, while the multiplier advances for all
    pool = np.repeat(np.array(pool, dtype=np.uint32)[:, None], rows, axis=1)
    links = np.array(chain, dtype=np.uint32)[:, None]
    for j in range(words.shape[1]):
        at = call + _POOL * j
        mixed = _mix(pool, _hashmix(words[:, j], links[at : at + _POOL], links[at + 1 : at + _POOL + 1]))
        pool = mixed if j < count.min() else np.where(j < count, mixed, pool)
    # the key: the first two pool words, hashed on a chain of their own
    links = np.array(_chain(_INIT_B, _MULT_B, 2), dtype=np.uint32)[:, None]
    out = _hashmix(pool[:2], links[:2], links[1:]).astype(np.uint64)
    return (out[0] | (out[1] << np.uint64(32))).reshape(shape)


def _mulhilo(m, x):
    """High and low 64-bit words of the 128-bit products m * x, for uint64
    arrays that broadcast; the high word by the four-multiply form of
    Hacker's Delight, section 8-2."""
    lo32 = np.uint64(_MASK32)
    s32 = np.uint64(32)
    ml, mh = m & lo32, m >> s32
    xl, xh = x & lo32, x >> s32
    t = xl * ml
    t >>= s32
    t += xh * ml
    xl *= mh
    xl += t & lo32
    t >>= s32
    xh *= mh
    xh += t
    xl >>= s32
    xh += xl
    return xh, x * m


def philox_uniforms(keys, sizes):
    """Uniforms on [0, 1) for every row and block of an (R, B) key array.

    Entry i of the result is an (R, sizes[i]) array whose row r equals
    Generator(Philox(key=keys[r, i])).random(sizes[i]).  Philox4x64-10 with
    key (s, 0): uniform j is lane j % 4 of the block at counter
    (j // 4 + 1, 0, 0, 0), mapped as (raw >> 11) * 2**-53.  Every uniform is
    a fixed function of (key, j), so a stream of k values is a prefix of
    any longer one.  All blocks run through one pass of the rounds.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    rows = keys.shape[0]
    nblocks = [(k + 3) // 4 for k in sizes]
    k0 = np.concatenate([np.repeat(keys[:, i], nb) for i, nb in enumerate(nblocks)])
    # lanes (c0, c2) and (c1, c3) as the rows of two (2, n) stacks, so that
    # one kernel takes both products of a round
    even = np.zeros((2, k0.size), dtype=np.uint64)
    even[0] = np.concatenate([np.tile(np.arange(1, nb + 1, dtype=np.uint64), rows) for nb in nblocks])
    odd = np.zeros_like(even)
    mult = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
    for r in range(_PHILOX_ROUNDS):
        hi, lo = _mulhilo(mult, even)
        # (c0, c2) <- (hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1) and (c1, c3) <- (lo1, lo0)
        odd ^= hi[::-1]
        odd[0] ^= k0
        odd[1] ^= np.uint64(r * _PHILOX_W[1] & _MASK64)
        even, odd = odd, lo[::-1]
        k0 += np.uint64(_PHILOX_W[0])
    raw = np.empty((k0.size, 4), dtype=np.uint64)
    raw[:, 0::2] = even.T
    raw[:, 1::2] = odd.T
    raw = raw.ravel()
    raw >>= np.uint64(11)
    out, at = [], 0
    for k, nb in zip(sizes, nblocks):
        block = raw[at : at + rows * 4 * nb].reshape(rows, 4 * nb)[:, :k]
        out.append(block * (1.0 / 9007199254740992.0))
        at += rows * 4 * nb
    return out


def sample_rows(laws, sizes, keys):
    """i.i.d. alphabet indices for every row and block of an (R, B) key array.

    Entry i of the result is an (R, sizes[i]) array drawn from laws[i] by
    inverse CDF, row r driven by the stream keys[r, i].  The laws must
    already be validated distributions (see as_dist).
    """
    return [np.searchsorted(_cdf(p), u, side="right") for p, u in zip(laws, philox_uniforms(keys, sizes))]


def sample_types(laws, sizes, keys):
    """The (R, d) empirical types of sample_rows' blocks, counted from the
    uniforms without drawing an index: entry i equals type_rows(
    sample_rows(laws, sizes, keys)[i], d) bit for bit.

    A uniform u draws the first letter x with u < cdf[x], so #(u < cdf[x])
    samples of a row fall at or below letter x; letter x counts the
    difference of successive such counts.
    """
    out = []
    for p, u in zip(laws, philox_uniforms(keys, sizes)):
        rows, k = u.shape
        counts = np.empty((rows, p.size), dtype=np.intp)
        below = 0
        for x, c in enumerate(_cdf(p)[:-1]):
            now = np.count_nonzero(u < c, axis=1)
            counts[:, x] = now - below
            below = now
        counts[:, -1] = k - below
        out.append(counts / k)
    return out


def _cdf(p):
    """The inverse-CDF table of a law: its running sum, with the last entry
    forced to 1.0 against rounding in the last bin."""
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    return cdf


def row_blocks(n, cap, width=1):
    """The consecutive slices of range(n), each holding as many rows of
    `width` values as fit `cap` (at least one)."""
    step = max(1, cap // max(1, width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def type_rows(x, d):
    """(R, d) empirical types of the rows of an (R, k) index array."""
    rows, k = x.shape
    counts = np.bincount((x + d * np.arange(rows)[:, None]).ravel(), minlength=rows * d)
    return counts.reshape(rows, d) / k


def grid_count(d, m):
    return comb(m + d - 1, d - 1)


def grid_array(d, m, eps=None):
    """Dense (N, d) array of all grid points at density m, lexicographic
    order: box_grid over the whole simplex.

    With eps set, every point is clamped into the epsilon floor (duplicates
    are kept so indexing stays aligned with the unclamped grid).
    """
    return box_grid(np.zeros(d), 1.0, m, eps)


def clamp_rows(pts, eps):
    """L1-nearest members of the epsilon-floored simplex, row by row.

    Deficient entries of each row of the (N, d) array are raised to eps; the
    surplus is taken from the remaining entries proportionally to their
    mass.  Iterates in case the renormalization pushes further entries below
    the floor.  Idempotent.  An (R, N, d) stack is clamped box by box: each
    (N, d) box stops iterating when it alone would, so it gets the bits it
    gets in a call of its own.
    """
    d = pts.shape[-1]
    eps = check_eps(eps, d)
    out = pts.copy()
    frozen = np.zeros(pts.shape, dtype=bool)
    for _ in range(d):
        low = (out < eps) & ~frozen
        moving = low.any(axis=(-2, -1), keepdims=True)
        if not moving.any():
            break
        frozen |= low
        budget = 1.0 - eps * frozen.sum(axis=-1, keepdims=True)
        rest_mass = np.where(frozen, 0.0, pts).sum(axis=-1, keepdims=True)
        safe = np.where(rest_mass > 0, rest_mass, 1.0)
        out = np.where(moving, np.where(frozen, eps, pts * (budget / safe)), out)
    return out


def box_grid(center, halfwidth, density, eps=None):
    """Grid points of spacing 1/density inside an L-inf box on the simplex.

    The first d-1 coordinates are center_i + j/density, and the last takes
    the remaining mass.  A point more than 1e-12 below 0 is off the simplex
    and dropped; a rounding residue in [-1e-12, 0) becomes exactly 0, so
    every point is a distribution.  With eps set, every point is then
    clamped into the epsilon floor.  Points come in lexicographic order of
    their first d-1 coordinates.

    A (d,) centre gives its (S, d) points.  An (R, d) stack of centres gives
    every row's box at once as (R, S, d) points, where S is the largest
    number of points a row keeps.  Row r holds its kept points first, in
    the order of a call on that centre alone and with the same bits, then
    padding: copies of its first point, bit for bit.  So a one-row stack is
    that call's box with no padding.

    The mesh is laid out once, and each later pass runs only where the data
    needs it: the kept points are compacted and padded only when some mesh
    point is off the simplex, and clamp_rows runs only when some coordinate
    lies below eps (eps is validated either way).  Skipping either leaves
    the bits of running it.

    Raises ValueError before allocating when the mesh, R times the product
    of the widest kept axis of each coordinate, would pass GRID_POINT_LIMIT
    points.
    """
    centers = np.atleast_2d(center)
    rows, d = centers.shape
    steps = _box_steps(halfwidth, density)
    offs = np.arange(-steps, steps + 1) / density
    # per axis, the mesh spans the offsets kept by the row with the largest
    # coordinate; center_i + offs ascends, so every other row keeps a
    # suffix of them, and a mesh point is off a row's box exactly when one
    # of its coordinates, the last included, is below -1e-12
    first = (centers[:, : d - 1].max(axis=0)[:, None] + offs < -1e-12).sum(axis=1)
    size = rows * prod(offs.size - int(f) for f in first)
    if size > GRID_POINT_LIMIT:
        raise ValueError(f"grid too large: {size} mesh points > {GRID_POINT_LIMIT}")
    # each coordinate's offsets on its own axis of the mesh, added to every
    # row's centre in place
    mesh = np.meshgrid(*(offs[f:] for f in first), indexing="ij", sparse=True)
    full = np.empty((rows, *(m.size for m in mesh), d))
    for i, m in enumerate(mesh):
        full[..., i] = centers[:, i].reshape(rows, *[1] * (d - 1)) + m
    full = full.reshape(rows, -1, d)
    full[..., -1] = 1.0 - full[..., :-1].sum(axis=-1)
    keep = full[..., -1] >= -1e-12
    for i in range(d - 1):
        keep &= full[..., i] >= -1e-12
    out = full
    if not keep.all():
        kept = keep.sum(axis=1)
        mask = np.arange(kept.max()) < kept[:, None]
        out = np.empty(mask.shape + (d,))
        out[mask] = full[keep]
        if not mask.all():
            out = np.where(mask[..., None], out, out[:, :1])
    out[out < 0.0] = 0.0
    if eps is not None and (out < check_eps(eps, d)).any():
        out = clamp_rows(out, eps)
    return out if np.ndim(center) == 2 else out[0]


def _box_steps(halfwidth, density):
    return int(np.ceil(halfwidth * density))


def box_mesh_size(d, halfwidth, density):
    """Points of box_grid's mesh before any axis value or point is dropped
    off the simplex: an upper bound on the rows it returns, found without
    building it."""
    return (2 * _box_steps(halfwidth, density) + 1) ** (d - 1)
