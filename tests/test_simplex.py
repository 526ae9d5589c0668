import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as orc
from seqclass import simplex
from seqclass.simplex import (
    as_dist,
    box_grid,
    clamp_rows,
    grid_array,
    grid_count,
    philox_uniforms,
    row_blocks,
    sample_rows,
    sample_types,
    satisfies_floor,
    stream_keys,
    type_rows,
)


def test_as_dist_validates():
    np.testing.assert_allclose(as_dist([0.5, 0.5]), [0.5, 0.5])
    with pytest.raises(ValueError):
        as_dist([0.5, 0.6])
    with pytest.raises(ValueError):
        as_dist([1.1, -0.1])


def test_empirical_counts():
    assert (type_rows(np.array([[0, 1, 1, 1]]), 2) == [[0.25, 0.75]]).all()


def test_empirical_degenerate():
    assert (type_rows(np.array([[0, 0]]), 2) == [[1.0, 0.0]]).all()


def test_empirical_concentrates():
    # DKW-style check: 10^4 draws land L1-close to the law in >= 99% of runs
    p = np.array([0.6, 0.4])
    (x,) = sample_rows([p], [10_000], stream_keys(0, np.arange(100)[:, None]))
    good = np.abs(type_rows(x, 2) - p).sum(axis=1) < 0.05
    assert np.count_nonzero(good) >= 99


def test_sample_point_mass():
    (x,) = sample_rows([np.array([1.0, 0.0])], [5], stream_keys(3, [[0]]))
    assert x.tolist() == [[0] * 5]


def test_sample_mean_clt():
    (x,) = sample_rows([np.array([0.5, 0.5])], [100_000], stream_keys(7, [[0]]))
    sigma = 0.5 / math.sqrt(100_000)
    assert abs(x.mean() - 0.5) < 3 * sigma


def test_stream_keys_distinct_and_stable():
    law = np.array([0.5, 0.5])
    a, b, c = (sample_rows([law], [50], stream_keys(1, 0, [[i]]))[0] for i in (0, 0, 1))
    assert (a == b).all()
    assert (a != c).any()


def test_grid_binary_m4():
    pts = grid_array(2, 4)
    want = {(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0)}
    assert {tuple(r) for r in pts} == want


@given(st.integers(2, 6), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_grid_array_holds_the_compositions_in_order(d, m):
    # the builder against an independent stars-and-bars enumeration
    want = np.array(list(orc.compositions(d, m)), dtype=np.float64)
    pts = grid_array(d, m)
    assert pts.shape == want.shape
    assert len(pts) == grid_count(d, m) == math.comb(m + d - 1, d - 1)
    assert (np.rint(pts * m) == want).all()
    assert np.abs(pts - want / m).max() <= 4.5e-16
    assert (pts >= 0.0).all()


@given(
    st.integers(2, 3),
    st.floats(0.0, 0.02),
    st.floats(0.0, 1.0),
    st.sampled_from([(1 / 30, 600), (0.02, 200), (0.05, 300)]),
)
@settings(max_examples=40, deadline=None)
def test_box_grid_clamps_points_below_the_floor(d, low, split, box):
    # a box around a center near the floor keeps its points below eps and
    # clamps them, as the whole-simplex grid does
    eps = 0.01
    center = np.array([low] + [(1.0 - low) * split, (1.0 - low) * (1.0 - split)][: d - 1])
    center[-1] = 1.0 - center[:-1].sum()
    halfwidth, density = box
    raw = box_grid(center, halfwidth, density)
    assert (raw[:, 0] < eps).any()
    assert np.array_equal(box_grid(center, halfwidth, density, eps), clamp_rows(raw, eps))


def test_builder_refuses_an_oversized_mesh_before_allocating(monkeypatch):
    # grid_array(3, 12) keeps 91 points but meshes 13^2 = 169
    monkeypatch.setattr(simplex, "GRID_POINT_LIMIT", 100)

    def never_called(*args, **kwargs):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(np, "meshgrid", never_called)
    with pytest.raises(ValueError, match="grid too large"):
        grid_array(3, 12)
    with pytest.raises(ValueError, match="grid too large"):
        box_grid(np.array([0.3, 0.3, 0.4]), 0.1, 60)


def _edge_centers(d):
    # rows of the simplex on and near its edge, where box axes and points
    # are cut: entries are 0, a hair above it, or up to 1, then normalised
    entry = st.one_of(st.just(0.0), st.floats(1e-4, 0.03), st.floats(0.0, 1.0))
    row = st.lists(entry, min_size=d, max_size=d).filter(lambda v: sum(v) > 0.1)
    return st.lists(row, min_size=1, max_size=6).map(lambda rows: np.array([np.array(v) / sum(v) for v in rows]))


@given(
    st.data(),
    st.integers(2, 4),
    st.sampled_from([(0.1, 60), (0.05, 100), (1 / 30, 600)]),
    st.sampled_from([None, 0.01]),
)
@settings(max_examples=60, deadline=None)
def test_box_grid_stack_rows_equal_their_own_boxes(data, d, box, eps):
    halfwidth, density = box
    if d == 4 and density == 600:
        halfwidth, density = 0.05, 100  # keep the d = 4 mesh small
    centers = data.draw(_edge_centers(d))
    pts = box_grid(centers, halfwidth, density, eps)
    assert pts.shape[0] == len(centers) and pts.shape[2] == d
    widths = []
    for r, c in enumerate(centers):
        alone = box_grid(c, halfwidth, density, eps)
        n = len(alone)
        widths.append(n)
        # kept points first, in the one-centre order and with its bits
        assert pts[r, :n].tobytes() == alone.tobytes()
        # padding copies the row's first point, bit for bit
        assert all(p.tobytes() == pts[r, 0].tobytes() for p in pts[r, n:])
    # the widest one-centre box sets the stack's width
    assert max(widths) == pts.shape[1]
    # a one-row stack is the one-centre box, unpadded
    one = box_grid(centers[:1], halfwidth, density, eps)
    assert one[0].tobytes() == box_grid(centers[0], halfwidth, density, eps).tobytes()


def test_box_grid_stack_refuses_an_oversized_mesh_before_allocating(monkeypatch):
    # one interior centre meshes 13^2 = 169 points, under the limit; a stack
    # of two meshes 338, over it
    centers = np.array([[0.3, 0.3, 0.4], [0.4, 0.3, 0.3]])
    monkeypatch.setattr(simplex, "GRID_POINT_LIMIT", 300)
    assert len(box_grid(centers[0], 0.1, 60)) == 169

    def never_called(*args, **kwargs):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(np, "meshgrid", never_called)
    with pytest.raises(ValueError, match="grid too large: 338"):
        box_grid(centers, 0.1, 60)


def test_clamp_rows_clamps_a_stack_box_by_box():
    # the first box has no entry below the floor, and its row sums to
    # 1 + 2.2e-16; a lone call leaves it as it is, however long the second
    # box, which starts below the floor, keeps iterating
    boxes = np.array([[[0.3, 0.7000000000000001]], [[0.001, 0.999]]])
    out = clamp_rows(boxes, 0.01)
    for box, got in zip(boxes, out):
        assert got.tobytes() == clamp_rows(box, 0.01).tobytes()
    assert out[0].tobytes() == boxes[0].tobytes()


def test_clamp_interior_untouched():
    np.testing.assert_allclose(clamp_rows(np.array([[0.5, 0.5]]), 0.01), [[0.5, 0.5]])


def test_clamp_single_deficient():
    np.testing.assert_allclose(clamp_rows(np.array([[1.0, 0.0]]), 0.01), [[0.99, 0.01]])


def test_clamp_multi_deficient_near_optimal():
    p = np.array([0.995, 0.004, 0.001])
    q = clamp_rows(p[None, :], 0.01)[0]
    assert satisfies_floor(q, 0.01)
    assert abs(q.sum() - 1.0) < 1e-12
    # exhaustive L1 search over the eps-floored grid
    pg = grid_array(3, 500, eps=0.01)
    best = np.abs(pg - p).sum(axis=1).min()
    assert np.abs(q - p).sum() <= best + 1e-2


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_clamp_rows_always_valid(raw):
    v = np.asarray(raw)
    if v.sum() <= 0:
        v = np.ones_like(v)
    v = v / v.sum()
    eps = 0.01
    out = clamp_rows(v[None, :], eps)[0]
    assert satisfies_floor(out, eps)
    assert abs(out.sum() - 1.0) < 1e-9


# numpy's SeedSequence and Philox are the oracles of the stream kernel
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, -3]
EDGE_IDS = [(), (7,), (7, 2), (2**32,), (5, 2**32 + 9), (2**64 - 1, 0)]


def _seed_sequence_key(seed, ids):
    ss = np.random.SeedSequence(entropy=seed & (2**63 - 1), spawn_key=ids)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _philox_random(key, k):
    return np.random.Generator(np.random.Philox(key=np.uint64(key))).random(k)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("ids", EDGE_IDS, ids=str)
def test_stream_keys_equal_seed_sequence_at_edges(seed, ids):
    assert int(stream_keys(seed, *ids)) == _seed_sequence_key(seed, ids)


@given(
    st.integers(-(2**70), 2**70),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
    st.integers(0, 2**40),
)
@settings(max_examples=60, deadline=None)
def test_stream_keys_rows_equal_seed_sequence(seed, trials, block):
    # a trial-index array as one id, word counts mixed across rows
    t = np.array(trials, dtype=np.uint64)
    for keys, spawn in ((stream_keys(seed, t, block), lambda i: (i, block)),
                        (stream_keys(seed, block, t), lambda i: (block, i))):
        assert keys.shape == t.shape
        assert [int(k) for k in keys] == [_seed_sequence_key(seed, spawn(i)) for i in trials]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_stream_keys_trial_block_grid_equal_seed_sequence(seed):
    # run_trials' call shape: a column of trial ids against a row of block
    # ids, the trial ids on both sides of 2**32
    wide = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    for trials in (np.arange(2**32 - 3, 2**32 + 3), wide):
        keys = stream_keys(seed, trials[:, None], np.arange(3))
        assert keys.shape == (trials.size, 3)
        for t, row in zip(trials, keys):
            assert [int(k) for k in row] == [_seed_sequence_key(seed, (int(t), i)) for i in range(3)]


def test_stream_keys_reject_bad_ids():
    for bad in (-1, 2**64, 0.5, np.array([3, -1])):
        with pytest.raises(ValueError):
            stream_keys(1, bad)


@pytest.mark.parametrize("k", [1, 3, 4, 5, 1080])
def test_philox_uniforms_equal_numpy_philox(k):
    keys = [int(stream_keys(s, 3, 1)) for s in EDGE_SEEDS] + [0, 2**64 - 1]
    (got,) = philox_uniforms(np.array(keys, dtype=np.uint64)[:, None], [k])
    assert got.shape == (len(keys), k)
    for row, key in zip(got, keys):
        assert (row == _philox_random(key, k)).all()


KEY = st.integers(0, 2**64 - 1)


@given(st.lists(st.tuples(KEY, KEY, KEY), min_size=1, max_size=3), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_philox_uniforms_blocks_of_any_length(keys, k):
    # several blocks of different lengths go through one pass of the rounds
    keys = np.array(keys, dtype=np.uint64)
    sizes = [k, 1, k + 5]
    for i, got in enumerate(philox_uniforms(keys, sizes)):
        assert got.shape == (keys.shape[0], sizes[i])
        for row, key in zip(got, keys[:, i]):
            assert (row == _philox_random(int(key), sizes[i])).all()


def test_sample_rows_are_the_inverse_cdf_of_numpy_philox():
    p = np.array([0.2, 0.0, 0.5, 0.3])
    q = np.array([0.6, 0.4])
    keys = stream_keys(11, np.arange(6)[:, None], np.arange(2))
    rows, other = sample_rows([p, q], [40, 9], keys)
    for law, k, block, col in ((p, 40, rows, keys[:, 0]), (q, 9, other, keys[:, 1])):
        for key, row in zip(col, block):
            # the inverse CDF through numpy's own generator
            u = _philox_random(int(key), k)
            assert (row == np.searchsorted(np.cumsum(law), u, side="right")).all()
    assert not (rows == 1).any()  # a zero-mass symbol is never drawn
    # a short stream is a prefix of a longer one
    assert (sample_rows([p], [13], keys[:, :1])[0] == rows[:, :13]).all()


#: a law as integer weights over 2..6 letters, zero weights allowed
WEIGHTS = st.integers(2, 6).flatmap(lambda d: st.lists(st.integers(0, 5), min_size=d, max_size=d)).filter(any)
EDGE_KEY = st.sampled_from([0, 2**64 - 1]) | KEY


@given(
    st.lists(st.tuples(WEIGHTS, st.integers(1, 300)), min_size=1, max_size=3),
    st.lists(st.lists(EDGE_KEY, min_size=3, max_size=3), min_size=1, max_size=3),
)
@example([([3, 1, 0], 1), ([0, 2, 0, 0, 0, 7], 299), ([1, 2, 7, 0], 6)], [[0, 2**64 - 1, 5]])
@settings(max_examples=60, deadline=None)
def test_sample_types_equal_types_of_sample_rows(blocks, keys):
    # the types counted from the uniforms are those of the drawn indices,
    # zero-mass letters (the last one too) and partial Philox blocks included
    laws = [as_dist(np.array(w) / sum(w)) for w, _ in blocks]
    sizes = [k for _, k in blocks]
    keys = np.array(keys, dtype=np.uint64)[:, : len(blocks)]
    got = sample_types(laws, sizes, keys)
    for types, x, p in zip(got, sample_rows(laws, sizes, keys), laws):
        want = type_rows(x, p.size)
        assert types.shape == want.shape
        assert types.tobytes() == want.tobytes()


def test_sample_types_break_ties_as_sample_rows(monkeypatch):
    # a uniform equal to a cdf entry draws the next letter with mass, in
    # both routes
    p = as_dist([0.25, 0.25, 0.0, 0.5])
    u = np.array([[0.0, 0.25, 0.5, 0.5 - 2**-53, 1 - 2**-53, 0.75]])
    monkeypatch.setattr(simplex, "philox_uniforms", lambda keys, sizes: [u])
    (x,) = sample_rows([p], [6], [[0]])
    (types,) = sample_types([p], [6], [[0]])
    assert list(x[0]) == [0, 1, 3, 1, 3, 3]
    assert types.tobytes() == type_rows(x, 4).tobytes()


@pytest.mark.parametrize(
    "n, cap, width, sizes",
    [
        (0, 8, 1, []),
        (5, 8, 1, [5]),
        (10, 8, 1, [8, 2]),
        (10, 8, 3, [2, 2, 2, 2, 2]),
        (7, 9, 3, [3, 3, 1]),
        (4, 8, 100, [1, 1, 1, 1]),  # a row wider than the cap goes alone
        (3, 8, 0, [3]),  # rows of no values: the cap bounds the rows
    ],
)
def test_row_blocks_cover_the_rows_in_capped_blocks(n, cap, width, sizes):
    blocks = row_blocks(n, cap, width)
    assert [range(n)[b] for b in blocks] == [range(lo, lo + k) for lo, k in zip(np.cumsum([0] + sizes), sizes)]


def test_type_rows_match_empirical():
    (x,) = sample_rows([np.array([0.5, 0.3, 0.2])], [17], stream_keys(4, np.arange(5))[:, None])
    types = type_rows(x, 3)
    for row, t in zip(x, types):
        assert (t == np.bincount(row, minlength=3) / 17).all()


def test_box_grid_without_floor_returns_distributions():
    # around this center the last coordinate, 1 minus the others, comes out
    # as -2.2e-16 on some mesh points; those points are kept as exact zeros
    center = np.array([0.9450000000000001, 0.043333333333333335, 0.011666666666666603])
    pts = box_grid(center, 1 / 30, 600)
    assert (pts[:, 2] == 0.0).any()
    assert (pts >= 0.0).all()
    for p in pts:
        as_dist(p)
    # with a floor the points are clamped into it, as before
    assert (box_grid(center, 1 / 30, 600, eps=0.01) >= 0.01 - 1e-15).all()


#: box_grid outputs recorded before its all-kept and nothing-below-eps
#: shortcuts: (centre or stack of centres, halfwidth, density, eps, shape,
#: sha256 of the shape and every entry's float.hex, first 32 digits).  Each
#: shortcut has cases that take it and cases that do not: "kept" boxes keep
#: every mesh point, "cut" boxes drop some off the simplex edge, "inside"
#: boxes have no coordinate below eps and "floor" boxes do; "residue" boxes
#: map a coordinate in [-1e-12, 0) to exactly 0
BOX_GRID_PINNED = [
    # d = 2
    ((0.4, 0.6), 0.05, 100, None, (11, 2), "21347bf9e708f447b9e7c080b299fc5b"),  # kept
    ((0.4, 0.6), 0.05, 100, 0.01, (11, 2), "21347bf9e708f447b9e7c080b299fc5b"),  # kept, inside
    ((0.98, 0.02), 0.05, 100, None, (8, 2), "658c033790db1f3d35543969c25eb24e"),  # cut
    ((0.98, 0.02), 0.05, 100, 0.01, (8, 2), "c76c4a20bfe1556a77169b370f4651a9"),  # cut, floor
    ((0.02, 0.98), 0.05, 100, 0.01, (8, 2), "3a44a01400e058cf690dbfbb7cdc8bdd"),  # kept, floor
    ((0.7, 0.3), 0.3, 10, None, (7, 2), "5c971ed9ec264ccc60c6eadbc1a8b58b"),  # cut
    ((0.0, 1.0), 0.2, 10, None, (3, 2), "8ecb55264e310d4b2caae7432314de5a"),  # kept
    ((0.09999999999999998, 0.9), 0.2, 10, None, (4, 2), "e7579a2961ad25246098c18e81b00804"),  # kept, residue
    ((0.09999999999999998, 0.9), 0.2, 10, 0.01, (4, 2), "91488b0c66e4aa0bd81e3f5c804982c9"),  # residue, floor
    (((0.4, 0.6), (0.98, 0.02), (0.5, 0.5)), 0.05, 100, None, (3, 11, 2), "c42080a05608ce9a9f132641ecd32036"),
    (((0.4, 0.6), (0.5, 0.5)), 0.05, 100, 0.01, (2, 11, 2), "11ece3fa8108866abedd8d05a8a5ee77"),  # kept, inside
    (((0.4, 0.6), (0.02, 0.98)), 0.05, 100, 0.01, (2, 11, 2), "96ce32bb32ebff89c9290985c53aba33"),  # floor
    (((-0.0, 1.0), (0.5, 0.5)), 0.1, 10, None, (2, 3, 2), "1bf52efc4dfb831b9c072180ca559ef8"),  # cut
    # d = 3
    ((0.3, 0.3, 0.4), 0.02, 200, None, (81, 3), "a400392e5007a43a9cbcde0ce8e55c68"),  # kept
    ((0.3, 0.3, 0.4), 0.02, 200, 0.01, (81, 3), "a400392e5007a43a9cbcde0ce8e55c68"),  # kept, inside
    ((0.5, 0.49, 0.01), 0.03, 100, None, (34, 3), "fdd8318b8a86e213276fb216b31ad7c3"),  # cut
    ((0.5, 0.49, 0.01), 0.03, 100, 0.01, (34, 3), "c7282cad88cba2ba604667e1f68d78f2"),  # cut, floor
    ((0.02, 0.5, 0.48), 0.05, 100, 0.01, (88, 3), "a109d565de1d818d7654634fea0f9b34"),  # kept, floor
    ((0.1, 0.2, 0.7), 0.3, 10, None, (30, 3), "ac2f5056204ded5dce92fa3936f2edde"),  # cut
    ((0.03333333333333333, 0.7666666666666667, 0.19999999999999996), 0.3, 10, None, (18, 3),
     "a626125495689c19197ba9eb1b1b5fa7"),  # cut, residue
    ((0.03333333333333333, 0.7666666666666667, 0.19999999999999996), 0.3, 10, 0.01, (18, 3),
     "f8a319777b12e63df48ab5d872697bda"),  # cut, residue, floor
    (((0.3, 0.3, 0.4), (0.5, 0.49, 0.01)), 0.03, 100, None, (2, 49, 3), "725293eb36ee143be6db53f1aef6e654"),
    (((0.3, 0.3, 0.4), (0.2, 0.3, 0.5)), 0.03, 100, 0.01, (2, 49, 3), "cc49a0f3389aa40cb22e4464b60d667c"),
    (((0.3, 0.3, 0.4), (0.02, 0.5, 0.48)), 0.05, 100, 0.01, (2, 121, 3), "9ebe058e28f150910be099635879a21e"),
]
#: grid_array, box_grid's whole-simplex case: (d, m, eps, shape, digest)
GRID_ARRAY_PINNED = [
    (2, 20, None, (21, 2), "46b5040f043c4583b6358e558d9b09e4"),
    (2, 20, 0.01, (21, 2), "6d8b99510840de0957bdf3d5d8772f0d"),
    (3, 10, None, (66, 3), "0d4a5d2b584295b2fc21ee3d43ffcf41"),
    (3, 10, 0.02, (66, 3), "bf96eded45097bd4d11e85c07c63e735"),
]


def _hex_digest(a):
    text = repr(a.shape) + ":" + ",".join(float(x).hex() for x in a.ravel())
    return hashlib.sha256(text.encode()).hexdigest()[:32]


@pytest.mark.parametrize("center, halfwidth, density, eps, shape, digest", BOX_GRID_PINNED)
def test_box_grid_keeps_its_recorded_bits(center, halfwidth, density, eps, shape, digest):
    out = box_grid(np.array(center), halfwidth, density, eps)
    assert out.shape == shape
    assert _hex_digest(out) == digest


@pytest.mark.parametrize("d, m, eps, shape, digest", GRID_ARRAY_PINNED)
def test_grid_array_keeps_its_recorded_bits(d, m, eps, shape, digest):
    out = grid_array(d, m, eps)
    assert out.shape == shape
    assert _hex_digest(out) == digest


@pytest.mark.parametrize("eps", [0.0, 0.5, -0.01, float("nan")])
def test_box_grid_refuses_a_bad_floor_whatever_its_points(eps):
    # every point of this box lies at or above each of these floors, so no
    # point would be clamped; the floor is still checked
    with pytest.raises(ValueError, match="epsilon"):
        box_grid(np.array([0.5, 0.5]), 0.0, 10, eps)
