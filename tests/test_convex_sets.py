import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeset import corpus
from gaugeset.convex_sets import (
    DirectionGrid,
    ExactIntervalMap,
    Primitive,
    SupportSet,
    canonical_values,
    contains_point,
    from_points,
    hausdorff,
    make_ball,
    make_interval,
    make_point,
    minkowski_add,
    norm,
    scale,
    steiner_point,
    translate,
)
from gaugeset.errors import EmptySupportSet, GridMismatch
from gaugeset.integrators import build_primitive
from gaugeset.partitions import Gauge, cousin_build

LINE = DirectionGrid.line()
CIRCLE = DirectionGrid.circle(64)


def canon_distance(A):
    """How far grid re-evaluation moves A's support values: 0 for a canonical A."""
    return float(np.max(np.abs(canonical_values(A.grid, A.values) - A.values)))


def dyadic(k, scale_pow=26):
    return float(k) / float(2**scale_pow)


def test_line_grid_is_cached_and_fixed():
    assert DirectionGrid.line() is LINE
    np.testing.assert_array_equal(LINE.dirs, [[-1.0], [1.0]])
    assert CIRCLE.m == 64 and CIRCLE.d == 2


def test_constructors_copy_the_caller_buffer():
    v, dirs = np.zeros(2), np.array([[-1.0], [1.0]])
    S, grid = SupportSet(LINE, v), DirectionGrid(1, dirs)
    assert v.flags.writeable and dirs.flags.writeable
    assert not S.values.flags.writeable and not grid.dirs.flags.writeable
    v[1], dirs[1, 0] = 5.0, 5.0
    assert np.array_equal(S.values, [0.0, 0.0]) and np.array_equal(grid.dirs, [[-1.0], [1.0]])


def test_direction_grid_takes_a_list_and_checks_its_shape():
    grid = DirectionGrid(1, [[-1.0], [1.0]])
    assert grid.m == 2 and np.array_equal(grid.dirs, LINE.dirs)
    for d, dirs in ((1, [[-1.0, 0.0], [1.0, 0.0]]), (2, [[1.0], [-1.0]]),
                    (1, [-1.0, 1.0]), (2, np.zeros((2, 2, 1)))):
        with pytest.raises(ValueError, match=rf"shape \(m, {d}\)"):
            DirectionGrid(d, dirs)


def test_circle_grid_rejects_odd_m():
    with pytest.raises(ValueError):
        DirectionGrid.circle(7)


def test_interval_support_values():
    A = make_interval(0.25, 0.75)
    np.testing.assert_array_equal(A.values, [-0.25, 0.75])


def test_interval_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        make_interval(1.0, 0.0)


def test_interval_add_is_endpoint_add():
    A = make_interval(0.0, 1.0)
    B = make_interval(2.0, 3.0)
    C = minkowski_add(A, B)
    np.testing.assert_array_equal(C.values, [-2.0, 4.0])


def test_hausdorff_of_intervals_is_max_endpoint_gap():
    A = make_interval(0.0, 1.0)
    B = make_interval(0.25, 1.5)
    assert hausdorff(A, B) == 0.5


def test_grid_mismatch_raises():
    A = make_interval(0.0, 1.0)
    B = make_ball(CIRCLE, [0.0, 0.0], 1.0)
    with pytest.raises(GridMismatch):
        minkowski_add(A, B)


def test_negative_scale_rejected():
    with pytest.raises(ValueError):
        scale(make_interval(0.0, 1.0), -1.0)


def test_empty_intersection_rejected():
    with pytest.raises(EmptySupportSet):
        canonical_values(LINE, np.array([-1.0, 0.5]))  # [1, 0.5] reversed


def test_square_minkowski_sum_vertices():
    """Sum of two axis-aligned squares is the square of summed extents."""
    S1 = from_points(CIRCLE, [[0, 0], [1, 0], [1, 1], [0, 1]])
    S2 = from_points(CIRCLE, [[0, 0], [2, 0], [2, 2], [0, 2]])
    S = minkowski_add(S1, S2)
    expected = from_points(CIRCLE, [[0, 0], [3, 0], [3, 3], [0, 3]])
    assert hausdorff(S, expected) <= 1e-15  # trig grid: one ulp of slack


def test_ball_support_and_steiner():
    B = make_ball(CIRCLE, [0.25, -0.5], 0.75)
    u0 = B.grid.dirs[0]
    assert B.values[0] == pytest.approx(u0 @ [0.25, -0.5] + 0.75)
    np.testing.assert_allclose(steiner_point(B), [0.25, -0.5], atol=1e-15)


def test_disk_steiner_quadrature_oracle():
    # midpoint-rule quadrature of (1/pi) int u h(u) du at m=1024 against m=64
    g = DirectionGrid.circle(1024)
    B = make_ball(g, [0.3, 0.4], 0.2)
    s_fine = (2.0 / g.m) * (B.values @ g.dirs)
    B64 = make_ball(CIRCLE, [0.3, 0.4], 0.2)
    np.testing.assert_allclose(steiner_point(B64), s_fine, atol=1e-12)


def test_steiner_of_interval_is_midpoint():
    A = make_interval(0.2, 0.8)
    np.testing.assert_allclose(steiner_point(A), [0.5])


def test_point_set_is_canonical_singleton():
    P = make_point(CIRCLE, [0.1, 0.2])
    assert canon_distance(P) <= 1e-9
    # grid norm of an off-grid point undershoots |x| by at most 1 - cos(pi/m)
    r = math.hypot(0.1, 0.2)
    assert r * math.cos(math.pi / CIRCLE.m) <= norm(P) <= r + 1e-15


def test_norm_exact_for_grid_aligned_point():
    P = make_point(CIRCLE, [0.5, 0.0])  # direction 0 is on the grid
    assert norm(P) == 0.5


def test_canonicalization_shrinks_loose_values():
    # inflating one halfplane grows the square into a sliver capped by its
    # neighbors; re-evaluation pulls the loose value down to the sliver apex
    sq = from_points(CIRCLE, [[0, 0], [1, 0], [1, 1], [0, 1]])
    loose = sq.values.copy()
    loose[0] += 0.5
    A = SupportSet(CIRCLE, canonical_values(CIRCLE, loose))
    assert A.values[0] < loose[0] - 0.3
    assert np.all(A.values <= loose + 1e-9)
    assert np.all(A.values >= sq.values - 1e-9)  # still contains the square
    assert canon_distance(A) <= 1e-9


def test_canonicalization_is_idempotent_on_hulls():
    rng = np.random.default_rng(42)
    for _ in range(25):
        pts = rng.normal(size=(6, 2))
        A = from_points(CIRCLE, pts)
        assert canon_distance(A) <= 1e-9


def test_contains_point_steiner_inside():
    rng = np.random.default_rng(7)
    for _ in range(25):
        pts = rng.normal(size=(5, 2))
        A = from_points(CIRCLE, pts)
        assert contains_point(A, steiner_point(A), slack=1e-9)
    assert not contains_point(make_interval(0.0, 1.0), [2.0])


def test_translation_moves_support_exactly():
    A = from_points(CIRCLE, [[0, 0], [1, 0], [0, 1]])
    x = np.array([0.5, -0.25])
    T = translate(A, x)
    np.testing.assert_array_equal(T.values, A.values + CIRCLE.dirs @ x)


# -- hypothesis invariants -----------------------------------------------------

dyadic_k = st.integers(min_value=-(2**26), max_value=2**26)


@st.composite
def dyadic_intervals(draw):
    k1 = draw(dyadic_k)
    k2 = draw(dyadic_k)
    lo, hi = min(k1, k2), max(k1, k2)
    return make_interval(dyadic(lo), dyadic(hi))


@given(dyadic_intervals(), dyadic_intervals(), dyadic_intervals())
@settings(max_examples=200)
def test_interval_add_associative_exact(A, B, C):
    left = minkowski_add(minkowski_add(A, B), C)
    right = minkowski_add(A, minkowski_add(B, C))
    assert hausdorff(left, right) == 0.0


@given(dyadic_intervals(), dyadic_intervals())
@settings(max_examples=200)
def test_interval_hausdorff_is_sup_norm_exact(A, B):
    dh = hausdorff(A, B)
    assert dh == float(np.max(np.abs(A.values - B.values)))
    assert dh >= 0.0
    assert hausdorff(A, B) == hausdorff(B, A)


@given(dyadic_intervals(), dyadic_intervals(), dyadic_k)
@settings(max_examples=200)
def test_interval_translation_invariance_exact(A, B, k):
    x = np.array([dyadic(k)])
    assert hausdorff(translate(A, x), translate(B, x)) == hausdorff(A, B)


@given(dyadic_intervals(), dyadic_intervals())
@settings(max_examples=200)
def test_interval_steiner_additive(A, B):
    s = steiner_point(minkowski_add(A, B))
    np.testing.assert_allclose(s, steiner_point(A) + steiner_point(B), atol=1e-9)
    assert contains_point(A, steiner_point(A), slack=1e-9)


@given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                min_size=1, max_size=8))
@settings(max_examples=100)
def test_hull_triangle_inequality(pts):
    A = from_points(CIRCLE, pts)
    B = make_ball(CIRCLE, [0.0, 0.0], 1.0)
    C = make_point(CIRCLE, [2.0, 0.0])
    assert hausdorff(A, C) <= hausdorff(A, B) + hausdorff(B, C) + 1e-12


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=1, max_size=6),
       st.floats(0.0, 3.0))
@settings(max_examples=100)
def test_scale_distributes_over_add(pts, lam):
    A = from_points(CIRCLE, pts)
    B = from_points(CIRCLE, [[1, 1], [2, 0]])
    left = scale(minkowski_add(A, B), lam)
    right = minkowski_add(scale(A, lam), scale(B, lam))
    assert hausdorff(left, right) <= 1e-12 * max(1.0, lam)


# -- primitives ----------------------------------------------------------------

def uniform_primitive(depth, fn):
    n = 2**depth
    starts = np.arange(n) / n
    widths = np.full(n, 1.0 / n)
    a, b = starts, starts + widths
    return Primitive(LINE, starts, widths, fn(a, b))


def interval_growth(a, b):
    return np.column_stack([np.zeros_like(a), (b * b - a * a) / 2.0])


def test_primitive_nodes_are_bit_exact_sums():
    phi = uniform_primitive(6, interval_growth)
    for depth in range(6):
        for idx in range(2**depth):
            parent = phi.node_value(depth, idx)
            left = phi.node_value(depth + 1, 2 * idx)
            right = phi.node_value(depth + 1, 2 * idx + 1)
            np.testing.assert_array_equal(parent, left + right)


def test_primitive_query_matches_closed_form():
    phi = uniform_primitive(8, interval_growth)
    got = phi.query_batch([0.25], [0.75])[0]
    np.testing.assert_allclose(got, [0.0, (0.75**2 - 0.25**2) / 2.0], atol=1e-12)


def test_primitive_partial_leaf_is_proportional():
    phi = uniform_primitive(2, interval_growth)
    # [0, 1/8] is half of the leaf [0, 1/4]
    np.testing.assert_array_equal(
        phi.query_batch([0.0], [0.125])[0], 0.5 * phi.node_value(2, 0)
    )


def covered_share_oracle(phi, a, b):
    """Each cell's value weighted by the share of it inside [a, b], summed by math.fsum."""
    starts, widths = phi.cells
    V = interval_growth(starts, starts + widths)
    frac = np.clip((np.minimum(starts + widths, b) - np.maximum(starts, a)) / widths, 0.0, 1.0)
    return np.array([math.fsum(col) for col in (V * frac[:, None]).T])


def test_primitive_query_batch_matches_covered_shares():
    phi = uniform_primitive(7, interval_growth)
    rng = np.random.default_rng(3)
    a = np.sort(rng.uniform(0, 1, 50))
    b = np.clip(a + rng.uniform(0, 0.2, 50), 0, 1)
    batch = phi.query_batch(a, b)
    want = np.stack([covered_share_oracle(phi, ai, bi) for ai, bi in zip(a, b)])
    np.testing.assert_allclose(batch, want, atol=1e-14)


def _built_g1_primitive():
    return build_primitive(corpus.corpus_get("G1"),
                           corpus.named_schedule("vh-origin", levels=6).levels[-1])


def _query_batch_cases():
    P = cousin_build(corpus.named_schedule("vh-origin", levels=4).levels[-1], tag_order="left")
    a, b = P.a, P.b
    edges = np.array([-0.5, -0.2, 0.3, 0.3, 0.71, 1.2, 1.5])
    t = np.sort(np.random.default_rng(5).uniform(-0.1, 1.1, 41))
    return {
        "cousin": (a, b),
        "gapped": (a[::2], b[::2]),
        "reversed": (b, a),
        "overlapping": (a[1:] - 0.5 * (b[1:] - a[1:]), b[1:]),
        "clipped": (a - 0.25, b + 0.25),
        "abut-after-clip": (edges[:-1], edges[1:]),
        "random-abutting": (t[:-1], t[1:]),
        "one": (a[3:4], b[3:4]),
        "empty": (a[:0], b[:0]),
    }


@pytest.mark.parametrize("case", sorted(_query_batch_cases()))
def test_primitive_query_batch_equals_prefix_differences(case, monkeypatch):
    """Every row is _prefix_at(b) - _prefix_at(a) of the clipped ends, bit for bit,
    and 0 where the clipped interval is empty or reversed."""
    phi = _built_g1_primitive()
    a, b = _query_batch_cases()[case]
    ca, cb = np.clip(a, 0.0, 1.0), np.clip(b, 0.0, 1.0)
    want = phi._prefix_at(cb) - phi._prefix_at(ca)
    want[cb <= ca] = 0.0
    calls = []
    prefix_at = phi._prefix_at
    monkeypatch.setattr(phi, "_prefix_at", lambda t: calls.append(len(t)) or prefix_at(t))
    got = phi.query_batch(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if len(a) > 1 and np.array_equal(ca[1:], cb[:-1]):  # abutting: once on the N + 1 edges
        assert calls == [len(a) + 1]
    else:
        assert calls == [len(a), len(a)]


def test_primitive_degenerate_query_is_zero():
    phi = uniform_primitive(4, interval_growth)
    np.testing.assert_array_equal(phi.query_batch([0.5], [0.5])[0], [0.0, 0.0])


def test_primitive_mixed_depth_tiling():
    # [0, 1/2] at depth 1 plus [1/2, 3/4], [3/4, 1] at depth 2
    starts = np.array([0.0, 0.5, 0.75])
    widths = np.array([0.5, 0.25, 0.25])
    V = interval_growth(starts, starts + widths)
    phi = Primitive(LINE, starts, widths, V)
    np.testing.assert_array_equal(
        phi.node_value(0, 0), V[0] + (V[1] + V[2])
    )
    np.testing.assert_array_equal(phi.node_value(1, 0), V[0])
    np.testing.assert_array_equal(phi.node_value(1, 1), V[1] + V[2])
    with pytest.raises(KeyError):  # inside the depth-1 leaf
        phi.node_value(2, 0)


def test_primitive_rejects_non_dyadic_cells():
    with pytest.raises(ValueError):
        Primitive(LINE, np.array([0.0, 0.3]), np.array([0.3, 0.7]),
                  np.zeros((2, 2)))


def mixed_tiling(seed=0, max_depth=8):
    """Random dyadic tiling of [0, 1] with depths 0..max_depth, as {(depth, index): row}."""
    rng = np.random.default_rng(seed)
    leaves, stack = {}, [(0, 0)]
    while stack:
        d, i = stack.pop()
        if d == max_depth or (d > 0 and rng.random() < 0.3):
            leaves[(d, i)] = rng.normal(size=2)
        else:
            stack += [(d + 1, 2 * i), (d + 1, 2 * i + 1)]
    keys = list(leaves)
    starts = np.array([i * 2.0 ** -d for d, i in keys])
    widths = np.array([2.0 ** -d for d, _ in keys])
    phi = Primitive(LINE, starts, widths, np.stack([leaves[k] for k in keys]))
    return leaves, phi


def test_primitive_node_values_match_recursive_reference():
    leaves, phi = mixed_tiling()
    assert phi.level == 8 and len({d for d, _ in leaves}) > 4

    def reference(d, i):
        if (d, i) in leaves:
            return leaves[(d, i)]
        return reference(d + 1, 2 * i) + reference(d + 1, 2 * i + 1)

    checked = 0
    for d, i in leaves:
        for up in range(d + 1):
            np.testing.assert_array_equal(phi.node_value(d - up, i >> up),
                                          reference(d - up, i >> up))
            checked += 1
    assert checked > len(leaves)


def test_primitive_rejects_overlap_with_gap():
    # aligned dyadic cells whose widths sum to 1: [0, 1/2] and [1/4, 1/2] overlap,
    # and [1/2, 3/4] is left uncovered
    with pytest.raises(ValueError):
        Primitive(LINE, np.array([0.0, 0.25, 0.75]), np.array([0.5, 0.25, 0.25]),
                  np.zeros((3, 2)))


def test_primitive_rejects_deep_non_dyadic_width():
    # [0, 2^-42] claimed 1.3 times as wide: off by far less than 1e-12 in absolute terms
    depth = 42
    starts, widths = halving_tiling(depth)
    widths[0] *= 1.3
    with pytest.raises(ValueError, match="dyadic"):
        Primitive(LINE, starts, widths, np.ones((depth + 1, 2)))


def halving_tiling(depth):
    """[0, 2^-depth] and [2^-k, 2^-(k-1)] for k = depth..1: cells of every depth."""
    starts = np.array([0.0] + [2.0**-k for k in range(depth, 0, -1)])
    widths = np.array([2.0**-depth] + [2.0**-k for k in range(depth, 0, -1)])
    return starts, widths


def test_primitive_rejects_deep_misaligned_start():
    # the second cell [w, 2w] starts 0.4 cells late: 9e-14 off, under an absolute 1e-12
    depth = 42
    starts, widths = halving_tiling(depth)
    starts[1] = 1.4 * 2.0**-depth
    with pytest.raises(ValueError, match="aligned"):
        Primitive(LINE, starts, widths, np.ones((depth + 1, 2)))


def test_primitive_accepts_ulp_noise_in_deep_starts_near_one():
    # mirrored halving tiling: the depth-40 cells sit at 1, where one ulp of a
    # start is about 1e-4 of a cell
    depth = 40
    starts, widths = halving_tiling(depth)
    starts = 1.0 - starts - widths
    noisy = starts.copy()
    noisy[:3] = np.nextafter(starts[:3], 0.0)
    assert np.all(noisy[:3] != starts[:3]) and np.all(noisy[:3] > 0.5)
    phi = Primitive(LINE, noisy, widths, np.ones((depth + 1, 2)))
    assert phi.level == depth
    np.testing.assert_array_equal(phi.node_value(0, 0), [depth + 1.0, depth + 1.0])


CHUNK = 1 << 16  # cells per chunk of Primitive's checks


def whole_array_check(starts, widths):
    """The message of the first check the cells fail, each check run over the
    whole sorted arrays at once, or None when they tile [0, 1]."""
    order = np.argsort(starts)
    starts, widths = starts[order], widths[order]
    depths = np.round(-np.log2(widths)).astype(int)
    if np.max(np.abs(widths * 2.0 ** depths - 1.0)) > 1e-12:
        return "cell widths must be dyadic (2^-k)"
    scaled = starts * 2.0 ** depths
    idx = np.round(scaled).astype(np.int64)
    if np.max(np.abs(scaled - idx)) > 1e-3:
        return "cells must be dyadically aligned"
    level = int(depths.max())
    if level > 62:
        return "tilings deeper than 62 levels are not supported"
    pos = idx << (level - depths)
    end = pos + (np.int64(1) << (level - depths))
    if pos[0] != 0 or end[-1] != 1 << level or np.any(pos[1:] != end[:-1]):
        return "cells do not tile [0, 1]"
    return None


def _two_chunks(case):
    """2^17 cells of depth 17, two chunks, with the defect ``case``."""
    n = 2 * CHUNK
    starts, widths = np.arange(n) / n, np.full(n, 1.0 / n)
    if case == "unsorted":
        order = np.random.default_rng(9).permutation(n)
        starts, widths = starts[order], widths[order]
    elif case == "non-dyadic":
        widths[CHUNK + 3] *= 1.3
    elif case == "misaligned":
        starts[CHUNK + 3] += 0.4 / n
    elif case == "misaligned-then-non-dyadic":  # the dyadic check still comes first
        starts[3] += 0.4 / n
        widths[CHUNK + 3] *= 1.3
    elif case == "too-deep":  # cell 0 halved down to depth 63, a gap in the next chunk
        deep = [2.0 ** -k for k in range(63, 17, -1)]
        starts = np.concatenate(([0.0], deep, np.delete(starts[1:], CHUNK)))
        widths = np.concatenate(([2.0 ** -63], deep, np.delete(widths[1:], CHUNK)))
    elif case == "gap-at-chunk-edge":  # cell 2^16 - 1 ends where no cell starts
        starts, widths = np.delete(starts, CHUNK), np.delete(widths, CHUNK)
    elif case == "overlap-at-chunk-edge":  # cell 2^16 - 1 again, as the next chunk's first
        starts = np.insert(starts, CHUNK, starts[CHUNK - 1])
        widths = np.insert(widths, CHUNK, widths[0])
    elif case == "late-start":
        starts, widths = starts[1:], widths[1:]
    elif case == "early-end":
        starts, widths = starts[:-1], widths[:-1]
    return starts, widths


@pytest.mark.parametrize("case", [
    "unsorted", "non-dyadic", "misaligned", "misaligned-then-non-dyadic", "too-deep",
    "gap-at-chunk-edge", "overlap-at-chunk-edge", "late-start", "early-end",
])
def test_chunked_checks_raise_the_whole_array_message(case):
    starts, widths = _two_chunks(case)
    V = np.ones((len(starts), 2))
    message = whole_array_check(starts, widths)
    if case == "unsorted":
        assert message is None
        phi = Primitive(LINE, starts, widths, V)
        assert np.array_equal(phi.cells[0], np.sort(starts)) and phi.level == 17
    else:
        assert message is not None
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Primitive(LINE, starts, widths, V)


@pytest.mark.parametrize("sort", [False, True])
def test_primitive_copies_unless_in_order_owned_and_read_only(sort):
    n = 2 * CHUNK + 5
    # [0, 1/2] in depth-18 cells, then [1/2, 1] in five coarser ones
    widths = np.concatenate((np.full(2 * CHUNK, 0.5 / (2 * CHUNK)),
                             [1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 32]))
    starts = np.concatenate(([0.0], np.cumsum(widths)[:-1]))
    V = np.random.default_rng(4).normal(size=(n, 2))
    prefix = np.vstack([np.zeros((1, 2)), np.cumsum(V, axis=0)])  # as one cumsum stacked
    order = np.random.default_rng(5).permutation(n) if sort else np.arange(n)
    given = [x[order] for x in (starts, widths, V)]
    phi = Primitive(LINE, *given)
    assert phi._prefix.tobytes() == prefix.tobytes()
    assert phi.cells[0] is not given[0] and phi._cellV is not given[2]  # writeable: copied
    kept = [x.copy() for x in given]
    for x in kept:
        x.flags.writeable = False
    phi = Primitive(LINE, *kept)
    assert [x is y for x, y in zip((*phi.cells, phi._cellV), kept)] == [not sort] * 3
    view = kept[0][:]  # read-only, but not the owner of its memory: copied
    assert Primitive(LINE, view, kept[1], kept[2]).cells[0] is not view
    assert not any(x.flags.writeable for x in (*phi.cells, phi._cellV, phi._prefix, phi._depths))


def test_primitive_retains_only_its_cells():
    n = 2**16
    starts, widths = np.arange(n) / n, np.full(n, 1.0 / n)
    V = interval_growth(starts, starts + widths)
    tracemalloc.start()
    try:
        phi = Primitive(LINE, starts, widths, V)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert phi.level == 16
    assert retained < 8 * V.nbytes


def test_built_and_exact_primitives_agree_on_reversed_and_empty_intervals():
    G2 = corpus.corpus_get("G2")
    built = build_primitive(G2, Gauge.constant(0.1))
    exact = G2.exact_primitive()
    a = np.array([0.75, 0.5, 0.2, 1.3, -0.2, 0.0, 1.0, 0.25])
    b = np.array([0.25, 0.5, 0.2, 1.1, -0.5, 0.0, 1.0, 0.75])
    got_built, got_exact = built.query_batch(a, b), exact.query_batch(a, b)
    assert not got_built[:-1].any() and not got_exact[:-1].any()
    np.testing.assert_allclose(got_built[-1], got_exact[-1], atol=1e-12)


def test_exact_interval_map_zeroes_degenerate_rows():
    phi = ExactIntervalMap(LINE, interval_growth)
    out = phi.query_batch(np.array([0.2, 0.5]), np.array([0.4, 0.5]))
    np.testing.assert_allclose(out[0], [0.0, (0.16 - 0.04) / 2.0])
    np.testing.assert_array_equal(out[1], [0.0, 0.0])


def test_exact_interval_map_leaves_a_read_only_output_unwritten():
    base = np.arange(8.0).reshape(4, 2)

    def fn(a, b):
        view = base.view()
        view.flags.writeable = False
        return view

    phi = ExactIntervalMap(LINE, fn)
    out = phi.query_batch(np.array([0.1, 0.5, 0.3, 0.7]), np.array([0.2, 0.5, 0.4, 0.6]))
    np.testing.assert_array_equal(out, [[0.0, 1.0], [0.0, 0.0], [4.0, 5.0], [0.0, 0.0]])
    np.testing.assert_array_equal(base, np.arange(8.0).reshape(4, 2))
    # with no empty row the output is returned as it is
    assert np.shares_memory(phi.query_batch(np.zeros(4), np.ones(4)), base)


def test_support_set_rejects_nonfinite():
    with pytest.raises(ValueError):
        SupportSet(LINE, np.array([np.nan, 1.0]))
