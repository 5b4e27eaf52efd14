"""Row-block probe sums against the whole-array level loop, bit for bit.

The oracle below is the probe stage as it ran over whole arrays: each
re-tagging variant made all N tags at once (``rng.uniform`` over every
cell), and each tag set was evaluated, weighted and reduced in one piece.
The library makes, evaluates and reduces each tag set _ROW_BLOCK rows at a
time (integrators._level_sums), so every level sum must equal the oracle's
exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeset import corpus
from gaugeset import integrators as it
from gaugeset.integrators import (_fsum, _fsum_columns, _row_max, _tree_sum_columns,
                                  origin_schedule)
from gaugeset.partitions import Gauge, TaggedPartition, _window_fine, cousin_build

B = it._ROW_BLOCK


class _Rows:
    """A whole-array partition read a row block at a time, as the level loop reads
    a cousin_build partition (CousinPartition.block)."""

    def __init__(self, P):
        self.P = P

    def __len__(self):
        return len(self.P)

    def block(self, rows):
        P = self.P
        return P.a[rows], P.b[rows], lambda i=slice(None): P.t[rows][i], P.widths[rows]


def _free_tags_oracle(P, gauge, rng):
    mid = (P.a + P.b) / 2.0
    radius = np.atleast_1d(gauge(mid))
    lo = np.maximum(0.0, mid - radius)
    hi = np.minimum(1.0, mid + radius)
    tau = rng.uniform(lo, hi)
    return np.where(_window_fine(P.a, P.b, tau, gauge), tau, P.t)


def _probe_tag_sets_oracle(P, gauge, rng, mode):
    a, b, w, t0 = P.a, P.b, P.widths, P.t
    henstock = mode == "henstock"

    def ok(tau):
        return w < np.atleast_1d(gauge(tau)) if henstock else _window_fine(a, b, tau, gauge)

    for _ in range(8):
        if henstock:
            u = rng.uniform(a, b)
            yield np.where(ok(u), u, t0)
        else:
            yield _free_tags_oracle(P, gauge, rng)
    for i in (1, 2, 3, 4, 6, 8):
        u = a + w * 4.0 ** (-i)
        yield np.where(ok(u), u, t0)
    for i in (1, 2, 4, 8):
        u = b - w * 4.0 ** (-i)
        yield np.where(ok(u), u, t0)
    if not henstock:
        for i in (2, 4, 6, 8):
            u = a * 4.0 ** (-i)
            yield np.where(ok(u), u, t0)


def _block_sums_oracle(tags, w, eval_fn, cells, nominal):
    """(column sums, variational gap sum) of one tag set, whole-array.

    Column sums are exact (_fsum_columns) for the nominal, tree sums for a probe.
    """
    terms = eval_fn(tags) * w
    d = cells - terms
    cols = _fsum_columns(terms) if nominal else _tree_sum_columns(terms)
    return cols, _fsum(_row_max(np.abs(d, out=d)))


def _partition(n):
    """n cells of uneven widths tiling [0, 1], tagged at their midpoints."""
    widths = np.random.default_rng([n, 1]).uniform(0.5, 1.5, n)
    edges = np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    edges[-1] = 1.0
    a, b = edges[:-1], edges[1:]
    return TaggedPartition(a, b, (a + b) / 2.0)


def _eval_fn(m):
    if m == 1:
        return lambda ts: np.cos(1.0 / (ts + 1e-3))[:, None]
    if m == 2:
        return corpus.corpus_get("G1").eval_support  # sin and cos of t^-2
    c = np.linspace(0.01, 1.0, m)
    return lambda ts: (ts[:, None] - c) / (ts[:, None] + c)


def _streamed_sums(P, gauge, mode, eval_fn, cells):
    """Library sums of the level's tag sets, nominal first, on one fresh rng."""
    rng = np.random.default_rng(_SEED)
    eval_blocks = lambda ts, blocks: [eval_fn(ts)]
    sums = []

    def visit(i, s):
        sums.append(s[0])
        return [0]

    L = _Rows(P)
    it._level_sums(len(L), lambda rows: P.widths[rows], it._probe_tag_sets(L, gauge, rng, mode),
                   eval_blocks, [0], eval_fn(P.t[:1]).shape[1:], visit, cells)
    return sums


_SEED = [3, 7701, 1]


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("m", [1, 2, 64])
@pytest.mark.parametrize("mode", ["henstock", "mcshane"])
def test_streamed_level_sums_equal_whole_array_sums(n, m, mode):
    P = _partition(n)
    # about the cell width: some candidate tags are fine, some fall back
    gauge = Gauge.from_callable(lambda ts: (0.4 + ts) * 1.5 / n)
    eval_fn = _eval_fn(m)
    cells = np.random.default_rng([n, m, 2]).normal(size=(n, m))

    rng = np.random.default_rng(_SEED)
    tags = P.t if mode == "henstock" else _free_tags_oracle(P, gauge, rng)
    want = [_block_sums_oracle(vt, P.widths[:, None], eval_fn, cells, i == 0)
            for i, vt in enumerate([tags, *_probe_tag_sets_oracle(P, gauge, rng, mode)])]

    cols = _streamed_sums(P, gauge, mode, eval_fn, None)
    gaps = _streamed_sums(P, gauge, mode, eval_fn, {0: cells})
    assert len(cols) == len(gaps) == len(want) == (19 if mode == "henstock" else 23)
    for (want_cols, want_gap), got_cols, got_gap in zip(want, cols, gaps):
        assert got_cols.tobytes() == want_cols.tobytes()
        assert got_gap == want_gap


def _made_tags(P, gauge, seed):
    """Each henstock probe variant's tags, made row block by row block."""
    rng = np.random.default_rng(seed)
    return [np.concatenate([make(slice(lo, lo + B))() for lo in range(0, len(P), B)])
            for make in list(it._probe_tag_sets(P, gauge, rng, "henstock"))[1:]]


def _open_fallbacks(P, g, seed):
    """Check g's probe tags against a copy of g with no bound, bit for bit.

    Returns how many tags of the rows the bound leaves open fell back to
    the build tag.
    """
    want = _made_tags(P, Gauge.from_callable(g), seed)
    got = _made_tags(P, g, seed)
    assert len(want) == len(got) == 18
    for x, y in zip(want, got):
        assert x.tobytes() == y.tobytes()
    settled = P.widths < g.lower(P.a)
    assert not any(np.any(settled & (x == P.t)) for x in got)
    return sum(int(np.count_nonzero(~settled & (x == P.t))) for x in got)


@pytest.mark.parametrize("schedule_id", ["uniform", "uniform-measurable", "henstock-origin",
                                         "vh-origin"])
@pytest.mark.parametrize("tag_order", ["mid", "left"])
def test_gauge_bound_keeps_every_probe_tag(schedule_id, tag_order):
    # levels 1, 6 and 12 have 16 to about 10^6 cells, across _ROW_BLOCK
    levels = corpus.named_schedule(schedule_id, levels=12).levels
    for n in (1, 6, 12):
        g = levels[n - 1]
        _open_fallbacks(cousin_build(g, tag_order=tag_order), g, [n, 7701])


@pytest.mark.parametrize("tag_order", ["mid", "left"])
def test_gauge_bound_open_rows_fall_back(tag_order):
    # a steep origin gauge: cells near 0 are wide against c t^2 at their left end
    g = origin_schedule(2.0 ** -15, 1.0, 1.0, 1.0, levels=1).levels[0]
    P = cousin_build(g, tag_order=tag_order)
    assert len(P) > 2 * B
    assert _open_fallbacks(P, g, [1, 7701]) > 0


def _tree_sum_oracle(x):
    """Pairwise tree sum of each column: rows 2i and 2i + 1 add, an odd last row carries."""
    x = np.array(x, dtype=np.float64)
    while len(x) > 1:
        h = len(x) // 2
        x = np.concatenate([x[0:2 * h:2] + x[1:2 * h:2], x[2 * h:]])
    return x[0]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 10), st.sampled_from(["C", "F", "view"]),
       st.integers(0, 2 ** 32 - 1))
def test_tree_sum_columns_equals_pairwise_oracle(n, m, layout, seed):
    # both row layouts (fewer than 8 columns, and more), from any input layout
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2 * m)) * 10.0 ** rng.integers(-12, 12, size=(n, 2 * m))
    x = x[:, ::2] if layout == "view" else np.asarray(x[:, :m], order=layout)
    assert _tree_sum_columns(x).tobytes() == _tree_sum_oracle(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 10), st.integers(0, 6),
       st.integers(0, 2 ** 32 - 1))
def test_tree_sum_of_aligned_block_partials_equals_whole_tree_sum(n, m, k, seed):
    # both row layouts of _tree_sum_columns (fewer than 8 columns, and more)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-12, 12, size=(n, m))
    block = 1 << k
    partials = np.array([_tree_sum_columns(x[lo:lo + block]) for lo in range(0, n, block)])
    assert _tree_sum_columns(partials).tobytes() == _tree_sum_columns(x).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_uniform_draw_identity(seed):
    rng = np.random.default_rng([seed, 9])
    n = 1000
    lo = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
    hi = lo + np.abs(rng.normal(size=n)) * 10.0 ** rng.integers(-8, 8, size=n)
    hi[::7] = lo[::7]  # empty ranges give lo itself
    want = np.random.default_rng([seed, 10]).uniform(lo, hi)
    got = it._uniform(np.random.default_rng([seed, 10]).random(n), lo, hi)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got[::7], lo[::7])


def _broadcast_eval(kind):
    """ts -> (N, 1) column; "nan" makes the tags below 0.3 nan."""
    if kind == "nan":
        def ev(ts):
            with np.errstate(invalid="ignore"):
                return np.log(ts - 0.3)[:, None]
        return ev
    return lambda ts: np.cos(1.0 / (ts + 1e-3))[:, None]


@pytest.mark.parametrize("n", [1, B + 1, 2 * B + 3])
@pytest.mark.parametrize("m", [2, 7, 8, 64])
@pytest.mark.parametrize("kind", ["finite", "nan"])
def test_broadcast_sums_equal_materialized_sums(n, m, kind):
    # m across _NARROW_ROW: the materialized array takes either row layout
    P = _partition(n)
    gauge = Gauge.from_callable(lambda ts: (0.4 + ts) * 1.5 / n)
    col = _broadcast_eval(kind)
    view = lambda ts: np.broadcast_to(col(ts), (len(ts), m))
    full = lambda ts: np.ascontiguousarray(view(ts))
    cells = np.broadcast_to(np.random.default_rng([n, m, 3]).normal(size=(n, 1)), (n, m))
    cols = _streamed_sums(P, gauge, "henstock", view, None)
    assert cols[0].shape == (m,)
    for got, want in zip(cols, _streamed_sums(P, gauge, "henstock", full, None)):
        assert got.tobytes() == want.tobytes()
    # gaps fold only when the cells are broadcast too
    for c in (cells, np.random.default_rng([n, m, 4]).normal(size=(n, m))):
        want = _streamed_sums(P, gauge, "henstock", full, {0: np.ascontiguousarray(c)})
        got = _streamed_sums(P, gauge, "henstock", view, {0: c})
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_only_stride_zero_columns_fold():
    col = np.linspace(0.0, 1.0, 5)[:, None]
    view = np.broadcast_to(col, (5, 64))
    folded = it._folded(view)
    assert folded.shape == (5, 1) and np.shares_memory(folded, view)
    # equal by value, but laid out column by column: the general path
    equal = np.ascontiguousarray(view)
    assert it._folded(equal) is equal
    assert it._folded(col) is col
    assert it._folded(np.broadcast_to(col, (5, 1))).shape == (5, 1)
    assert it._widened(np.array([2.0]), 64).tobytes() == np.full(64, 2.0).tobytes()
