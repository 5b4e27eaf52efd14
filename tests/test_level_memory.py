"""Level memory: Cousin builds, built primitives and exact nominal sums hold no
whole-level temporaries.

The traced peaks below are tracemalloc's, so they count what numpy asks
for, not what the allocator keeps; they are exact and repeat run to run.
The nominal of a column run is evaluated and summed _ROW_BLOCK rows at a
time (integrators._level_sums); its sums must equal _fsum_columns of the
whole term array bit for bit; where a row block holds inf, nan or a value
past the extraction limit, its terms join math.fsum as they are, so it must
give math.fsum's value or error, and still only row blocks are evaluated.
"""

import math
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeset import corpus, decomposition
from gaugeset import integrators as it
from gaugeset.convex_sets import Primitive
from gaugeset.partitions import Gauge, TaggedPartition, cousin_build

B = it._ROW_BLOCK


def _traced_peak(fn):
    """fn()'s result and the traced peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_cousin_build_peak_is_a_small_multiple_of_its_output():
    # 1,075,912 cells.  Building a, b and t as whole arrays peaked at 1.35
    # times their 24 bytes a cell (32.8 MiB); the build now keeps 2 bytes a
    # cell, and its runs' codes and their concatenation beside bounded run
    # arrays take it to 9.7 bytes a cell
    g = corpus.named_schedule("henstock-origin").levels[-1]
    P, peak = _traced_peak(lambda: cousin_build(g))
    assert len(P) > 1_000_000 and P.codes.nbytes == 2 * len(P)
    assert peak <= 12 * len(P)


@pytest.mark.parametrize("entry, run", [
    ("G1", lambda mf: it.henstock_integrate(
        mf, corpus.named_schedule("henstock-origin", levels=10), 1e-3)),
    ("G1", lambda mf: it.vh_check(
        mf, mf.exact_primitive(), corpus.named_schedule("vh-origin", levels=9))),
    ("G2", lambda mf: it.vh_check(  # G1's free mode diverges at level 1
        mf, mf.exact_primitive(), corpus.named_schedule("uniform", levels=13), mode="free")),
], ids=["henstock", "vh", "vms"])
def test_each_level_is_freed_before_the_next_build(monkeypatch, entry, run):
    # the last probe maker's closure holds the partition and its codes; with
    # the pool on, nor may a block's future or closure outlive its level
    build, refs, alive = it.cousin_build, [], []

    def hooked(*args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        P = build(*args, **kwargs)
        refs[:] = [weakref.ref(x) for x in (P, P.codes)]
        return P

    monkeypatch.setattr(it, "cousin_build", hooked)
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(it, "_pool", lambda: pool)
        run(corpus.corpus_get(entry))
    assert len(alive) > 8 and alive == [0] * len(alive)


def test_henstock_level_loop_peak_is_bounded():
    # G1's finest level is 1,075,912 cells.  Evaluating the nominal over the
    # whole level took the run to 103 bytes a cell, and whole-level a, b, t,
    # widths and open rows to 38; the level is now its 2-byte codes, read in
    # row blocks, and the run peaks at 10.9 bytes a cell, most of it bounded
    G1 = corpus.corpus_get("G1")
    sched = corpus.named_schedule("henstock-origin")
    rep, peak = _traced_peak(lambda: it.henstock_integrate(G1, sched, 1e-3))
    cells = rep.levels[-1].n_items
    assert cells > 1_000_000
    assert peak <= 16 * cells


def _cubic(c):
    """A cubic origin branch: delta(0) = 0.03, delta(t) = c t^3, bounded on cells."""
    return Gauge("callable", fn=lambda ts: np.where(ts <= 0.0, 0.03, c * ts * ts * ts),
                 name=f"cubic({c:g})", lower=lambda a: c * a * a * a,
                 upper=lambda a, b: np.where(a > 0.0, c * b * b * b, np.inf))


def test_henstock_peak_grows_by_a_few_bytes_per_finest_cell():
    # two G1 runs of two cubic-gauge levels, 297,682 and 1,444,597 cells at
    # the finest: with whole-level arrays the peak grew by 33 bytes a cell;
    # with 2-byte codes read in row blocks it grows by about 4.2, the build's
    # codes and their concatenation
    G1 = corpus.corpus_get("G1")
    runs = []
    for cs in ((2e-2, 1e-2), (4e-3, 2e-3)):
        sched = it.GaugeSchedule(tuple(_cubic(c) for c in cs), name="cubic")
        rep, peak = _traced_peak(lambda: it.henstock_integrate(G1, sched, 1e-3))
        runs.append((rep.levels[-1].n_items, peak))
    (small, p_small), (big, p_big) = runs
    assert big - small > 1_000_000
    assert p_big - p_small <= 6 * (big - small)


def test_a_wide_block_holds_its_values_and_chunks_only(monkeypatch):
    # G4's Steiner remainder: 64 columns, not broadcast, one 2^15-row block
    # (16 MiB of values) at level 12.  Weighting a whole block and
    # subtracting the remainder into a new array took the serial run to 2.9x
    # the values (46.6 MiB); a block now holds its values and chunk-sized
    # temporaries only (1.18-1.22x).  Pooled, _IN_FLIGHT such blocks run at
    # once: a block's rows cannot be split without moving the BLAS bits of
    # its Steiner pick (ROADMAP item 8).  The serial peak is the level's own
    # arrays L plus one task's work E: its tags, made in the task, and its
    # block's evaluation and sums.  Pooled, at most _IN_FLIGHT tasks run, and
    # the calling thread holds beside them only the next task's seeded
    # draws D, 8 bytes a row of fewer than 2 _ROW_BLOCK rows, so the peak is
    # at most L + _IN_FLIGHT E + D <= _IN_FLIGHT (L + E) + D.  The bound
    # asserted was _IN_FLIGHT (L + E) alone, which held only while L covered
    # what the calling thread made meanwhile: the next block's whole tags
    # and their temporaries, about 1.5 MiB against an L of 0.9 MiB, so it
    # failed when they met two tasks' peaks.  The tags are now made in the
    # task; the run peaks at 1.91x its serial peak
    G4 = corpus.corpus_get("G4")
    G, _ = decomposition.subtract_selection(G4, decomposition.steiner_selection(G4))
    sched = corpus.named_schedule("uniform")
    values = B * 64 * 8
    peaks = {}
    with ThreadPoolExecutor(2) as pool:
        for name, use in (("serial", None), ("pooled", pool)):
            monkeypatch.setattr(it, "_pool", lambda: use)
            rep, peaks[name] = _traced_peak(lambda: it.mcshane_integrate(G, sched, 1e-3))
            assert rep.levels[-1].n_items == B
    assert peaks["serial"] <= 1.4 * values
    assert peaks["pooled"] <= it._IN_FLIGHT * peaks["serial"] + 8 * 2 * B


def _weighted_case(n, m, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-12, 12, size=(n, m))
    return v, rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 1, size=n)


@settings(max_examples=24, deadline=None)
@given(st.sampled_from([1, 2 ** 12 - 1, 2 ** 12 + 1, 2 ** 15]), st.sampled_from([1, 2, 64]),
       st.integers(0, 2 ** 32 - 1))
def test_chunk_weighting_keeps_the_whole_array_bits(n, m, seed):
    v, w = _weighted_case(n, m, seed)
    tree = it._tree_sum_weighted(v, w)
    assert tree.tobytes() == it._tree_sum_columns(it._weighted(v, w)).tobytes()
    exact = it._fsum_totals(it._extract(v, [], w), m)
    assert exact.tobytes() == it._fsum_columns(v * w[:, None]).tobytes()


def test_query_batch_peak_is_a_small_multiple_of_its_output():
    G1 = corpus.corpus_get("G1")
    g = corpus.named_schedule("vh-origin").levels[8]
    phi = it.build_primitive(G1, g)
    P = cousin_build(g, tag_order="left")
    a, b = P.a, P.b  # made before the trace
    out, peak = _traced_peak(lambda: phi.query_batch(a, b))
    assert peak - out.nbytes <= 4.0 * out.nbytes


def _finest_vh_level():
    return corpus.corpus_get("G1"), corpus.named_schedule("vh-origin").levels[11]


def test_query_batch_on_the_finest_vh_level_peaks_within_1_5x_its_output():
    # G1's 585,185 left-tagged vh-origin level-12 cells, 8.9 MiB out: with
    # every edge's index, fraction and gathers alive at once the call peaked
    # at 4.5x, and with whole clipped copies of both ends at 2.25x; it now
    # holds one chunk's ends, edges and gathers beside its output (1.31x)
    G1, g = _finest_vh_level()
    phi = it.build_primitive(G1, g)
    P = cousin_build(g, tag_order="left")
    a, b = P.a, P.b  # made before the trace
    out, peak = _traced_peak(lambda: phi.query_batch(a, b))
    assert len(P) > 500_000 and peak <= 1.5 * out.nbytes
    p = phi._prefix_at(np.concatenate((P.a[:1], P.b)))  # the whole level's edges at once
    assert out.tobytes() == (p[1:] - p[:-1]).tobytes()


def _primitive_bytes(phi):
    return sum(x.nbytes for x in (*phi.cells, phi._depths, phi._prefix, phi._cellV))


def test_build_primitive_peaks_within_1_6x_its_arrays():
    # sorting sorted cells, gathering copies of them and checking whole-array
    # temporaries took the level-12 build to 2.87x the primitive (89.7 MiB);
    # the Primitive now keeps the partition's a and widths and the terms (1.49x;
    # 1.41x before the partition's whole arrays were expanded from its codes)
    G1, g = _finest_vh_level()
    phi, peak = _traced_peak(lambda: it.build_primitive(G1, g))
    assert len(phi.cells[0]) > 500_000
    assert peak <= 1.6 * _primitive_bytes(phi)


def test_primitive_keeps_read_only_cells_and_peaks_within_1_3x_its_new_arrays():
    # its new arrays are the int16 depths and the prefix sums (1.20x)
    G1, g = _finest_vh_level()
    P = cousin_build(g, tag_order="mid")
    V = G1.eval_support(P.t) * P.widths[:, None]
    V.flags.writeable = False
    phi, peak = _traced_peak(lambda: Primitive(G1.grid, P.a, P.widths, V))
    assert phi.cells[0] is P.a and phi.cells[1] is P.widths and phi._cellV is V
    assert peak <= 1.3 * (phi._depths.nbytes + phi._prefix.nbytes)


def _level(n):
    """n cells of uneven widths tiling [0, 1], tagged at their midpoints."""
    widths = np.random.default_rng([n, 5]).uniform(0.5, 1.5, n)
    edges = np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    edges[-1] = 1.0
    P = TaggedPartition(edges[:-1], edges[1:], (edges[:-1] + edges[1:]) / 2.0)
    return P.t, P.widths[:, None].copy()  # _spiked writes into the widths


def _outcome(fn):
    """Result bits, or the type and message of the error raised."""
    try:
        return [s.view(np.int64).tolist() for s in fn()]
    except (OverflowError, ValueError) as e:
        return type(e), str(e)


def _nominal(tags, w, eval_blocks, blocks, ms):
    """The library's exact nominal column sums of one level, {block: sums}."""
    out = {}
    it._level_sums(len(w), lambda rows: w[rows, 0], [lambda rows: tags[rows]], eval_blocks,
                   blocks, ms, lambda i, s: out.update(s) or [])
    return out


def _nominal_outcomes(tags, w, evals, ms):
    """(streamed, whole-array) outcomes of the nominal of ``evals``, one per block."""
    calls = []

    def eval_blocks(ts, blocks):
        calls.append(len(ts))
        return [f(ts) for f in evals]

    blocks = list(range(len(evals)))
    streamed = _outcome(lambda: list(_nominal(tags, w, eval_blocks, blocks, ms).values()))
    whole = _outcome(lambda: [it._widened(it._fsum_columns(it._folded(f(tags)) * w), m)
                              for f, m in zip(evals, ms)])
    return streamed, whole, calls


def _smooth(m):
    c = np.linspace(0.01, 1.0, m)
    return lambda ts: (ts[:, None] - c) / (ts[:, None] + c)


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("m", [1, 2, 64])
def test_streamed_nominal_equals_whole_array_sums(n, m):
    tags, w = _level(n)
    # the second evaluator is broadcast along its directions, as G4's is
    evals = [_smooth(m),
             lambda ts: np.broadcast_to(np.cos(1.0 / (ts[:, None] + 1e-3)), (len(ts), m))]
    streamed, whole, calls = _nominal_outcomes(tags, w, evals, (m, m))
    assert streamed == whole
    assert calls == [min(B, n - lo) for lo in range(0, n, B)]  # row blocks, no whole pass


def _spiked(m, col, rows, values, tags, w):
    """_smooth(m) with weighted terms ``values`` at ``rows`` of column ``col``.

    The spike rows get width 1 in ``w`` (written in place), so each term is
    its value exactly.  A call on a row block finds its first row in the
    sorted ``tags``.
    """
    base = _smooth(m)
    w[rows] = 1.0

    def f(ts):
        out = base(ts)
        lo = int(np.searchsorted(tags, ts[0]))
        hit = (rows >= lo) & (rows < lo + len(ts))
        out[rows[hit] - lo, col] = values[hit]
        return out
    return f


SPIKES = {
    "inf": [math.inf],
    "nan": [math.nan],
    "inf-minus-inf": [math.inf, -math.inf],
    "1e300": [1e300],
    "1e300-cancelling": [1e300, -1e300],
    "overflow": [1.5e308, 1.5e308],
    # in [2^983, 2^984): past the extraction limit of a 2^16-row block (k = 17), as
    # _fsum_columns meets the whole m = 1 array, inside that of a 2^15-row block
    # (k = 16), as the stream meets it; 2^984 is past both
    "level-limit": [1.5 * 2.0 ** 983],
    "block-limit": [2.0 ** 984],
}


@pytest.mark.parametrize("spike", sorted(SPIKES))
@pytest.mark.parametrize("m", [1, 2])
def test_nominal_with_a_spike_in_its_second_block_keeps_math_fsum(spike, m):
    n = 3 * B + 7
    tags, w = _level(n)
    values = np.array(SPIKES[spike])
    rows = B + 11 + 97 * np.arange(len(values))
    f = _spiked(m, m - 1, rows, values, tags, w)
    streamed, whole, calls = _nominal_outcomes(tags, w, [f], (m,))
    assert streamed == whole == _outcome(lambda: [np.array([math.fsum(c.tolist())
                                                            for c in (f(tags) * w).T])])
    assert calls == [B, B, B, 7]  # only row blocks: the spike's joins math.fsum as its terms
    if spike == "overflow":
        assert whole == (OverflowError, "intermediate overflow in fsum")
    if spike == "inf-minus-inf":
        assert whole[0] is ValueError

