"""Row blocks evaluated on two threads: the same bits, errors and threads as one.

integrators._level_stream hands each row block's evaluation, weighting and
reduction to a pool of worker threads when the evaluator is one the library
built (integrators._pooled) and the level spans more than one _ROW_BLOCK or
is wide (_POOL_WORK); a small level's tag sets are batched into tasks, and
the tags are still made on the calling thread, in row order.  The cases
here run with a pool the test owns (two workers, whatever the CPUs this
process may use) against the serial loop (_pool patched to give None).
"""

import dataclasses
import functools
import hashlib
import math
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from click.testing import CliRunner

from gaugeset import corpus, decomposition
from gaugeset import integrators as it
from gaugeset.cli import main
from gaugeset.decomposition import Selection

B = it._ROW_BLOCK


class _Pool(ThreadPoolExecutor):
    """Two worker threads; keeps every future it hands out."""

    def __init__(self):
        super().__init__(2, thread_name_prefix="test-eval")
        self.futures = []

    def submit(self, *args, **kwargs):
        f = super().submit(*args, **kwargs)
        self.futures.append(f)
        return f


@pytest.fixture
def pool(monkeypatch):
    ex = _Pool()
    monkeypatch.setattr(it, "_pool", lambda: ex)
    yield ex
    ex.shutdown()


def _use(monkeypatch, ex):
    monkeypatch.setattr(it, "_pool", lambda: ex)


# -- reports -------------------------------------------------------------------

def _finer_uniform(monkeypatch):
    """decompose's uniform schedules one level finer: 2^16 cells, two row blocks."""
    def named(spec_id, levels=12):
        return corpus.named_schedule(spec_id, levels=13 if spec_id == "uniform" else levels)

    def recommended(mf, method):
        return named(corpus.recommendation(mf, method).get("schedule", "uniform"))

    monkeypatch.setattr(decomposition, "named_schedule", named)
    monkeypatch.setattr(decomposition, "recommended_schedule", recommended)


def _report(argv, out_dir):
    res = CliRunner().invoke(main, argv + ["--deterministic", "--out", str(out_dir)])
    [json_path] = out_dir.glob("*.json")
    [csv_path] = out_dir.glob("*.csv")
    digest = hashlib.sha256(json_path.read_bytes() + csv_path.read_bytes()).hexdigest()
    return res.exit_code, digest


# finest levels: henstock-origin L10 132,901 cells (5 blocks), vh-origin L8
# 44,285 (2), uniform L13 65,536 (2); G1 t33's henstock-origin L12 spans 33.
# G1 vms diverges at level 1, so it never reaches the pool; G2 vms does
@pytest.mark.parametrize("op, reaches_pool", [
    ("integrate G1 --method henstock --levels 10", True),
    ("integrate G1 --method hkp --levels 10", True),
    ("integrate G1 --method vh --levels 8", True),
    ("integrate G1 --method vms --levels 13", False),
    ("integrate G2 --method vms --levels 13", True),
    ("decompose G1 --selection argmax:-1 --theorem t33", True),
    ("decompose G2 --selection steiner --theorem t55", True),
])
def test_pooled_reports_equal_serial_reports(monkeypatch, tmp_path, op, reaches_pool):
    _finer_uniform(monkeypatch)
    _use(monkeypatch, None)
    serial = _report(op.split(), tmp_path / "serial")
    ex = _Pool()
    try:
        _use(monkeypatch, ex)
        pooled = _report(op.split(), tmp_path / "pooled")
    finally:
        ex.shutdown()
    assert pooled == serial
    assert bool(ex.futures) == reaches_pool


# one-block levels reach the pool when wide: G4's Steiner remainder (64 columns,
# not broadcast) from 2,048 cells on, whose Steiner pick is a BLAS product on a
# worker thread, and t55's three variational blocks of G2 at 32,768 cells
@pytest.mark.parametrize("op", ["decompose G4 --selection steiner --theorem t33",
                                "decompose G2 --selection steiner --theorem t55"])
def test_pooled_one_block_levels_equal_serial_reports(monkeypatch, tmp_path, op):
    _use(monkeypatch, None)
    serial = _report(op.split(), tmp_path / "serial")
    ex = _Pool()
    try:
        _use(monkeypatch, ex)
        pooled = _report(op.split(), tmp_path / "pooled")
    finally:
        ex.shutdown()
    assert pooled == serial
    assert ex.futures


# G2's levels are at most 32,768 cells of 2 columns, G4's support is one column
# broadcast to 64: every level is cheap and stays on the calling thread
@pytest.mark.parametrize("op", ["integrate G2 --method henstock", "integrate G4 --method mcshane",
                                "integrate G4 --method vh"])
def test_a_tiny_level_op_makes_no_future(pool, tmp_path, op):
    code, _ = _report(op.split(), tmp_path)
    assert code == 0
    assert not pool.futures


def test_wrapped_evaluators_and_user_selections_stay_on_the_calling_thread(pool):
    G1 = corpus.corpus_get("G1")
    seen = set()

    @functools.wraps(corpus._g1_eval)
    def timed(ts):
        seen.add(threading.get_ident())
        return corpus._g1_eval(ts)

    def points(ts):
        seen.add(threading.get_ident())
        return corpus.F_prime(ts)[:, None]

    sched = corpus.named_schedule("henstock-origin", levels=10)
    it.henstock_integrate(dataclasses.replace(G1, eval_support=timed), sched, 1e-3)
    user = Selection(name="user", d=1, eval_points=points)
    it.henstock_with_selection(G1, user, sched, 1e-3, 1e-3)
    G, _ = decomposition.subtract_selection(G1, user)
    it.mcshane_integrate(G, corpus.named_schedule("uniform", levels=13), 1e-3)
    assert seen == {threading.get_ident()}
    assert not pool.futures
    it.henstock_integrate(G1, sched, 1e-3)  # the registry's own evaluator does go
    assert pool.futures


# -- errors, and nominal blocks past the extraction limit ---------------------------

def _level(n):
    """n cells of uneven widths tiling [0, 1]: increasing midpoint tags and (n, 1) widths."""
    widths = np.random.default_rng([n, 9]).uniform(0.5, 1.5, n)
    edges = np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    return (edges[:-1] + edges[1:]) / 2.0, np.diff(edges)[:, None]


def _sums(tags, w, eval_blocks, probes=(), cells=None):
    """Every tag set's sums of one level, nominal first, for one block of width 2."""
    sums = []

    def visit(i, s):
        sums.append(s[0])
        return [0]

    it._level_sums(len(w), lambda rows: w[rows, 0], [lambda rows: tags[rows], *probes],
                   eval_blocks, [0], (2,), visit, cells)
    return sums


@pytest.mark.parametrize("kind", ["nominal", "column", "variational"])
def test_an_error_in_the_second_of_three_blocks_is_the_serial_one(monkeypatch, kind):
    # the nominal's second block, or the second block of the probe after it
    n = 3 * B - 5
    tags, w = _level(n)
    probe = tags + 0.25 / n
    bad = (tags if kind == "nominal" else probe)[B]

    def f(ts):
        if ts[0] == bad:
            raise ValueError(f"no value at t={ts[0]!r}")
        return np.column_stack([ts, 1.0 - ts])

    eval_blocks = it._pooled(lambda ts, blocks: (f(ts),))
    probes = [] if kind == "nominal" else [lambda rows: probe[rows]]
    cells = {0: np.zeros((n, 2))} if kind == "variational" else None
    outcomes, ex = [], _Pool()
    try:
        for use in (None, ex):
            _use(monkeypatch, use)
            with pytest.raises(ValueError) as e:
                _sums(tags, w, eval_blocks, probes, cells)
            outcomes.append((type(e.value), str(e.value)))
            assert not any(f.running() for f in ex.futures)
    finally:
        ex.shutdown()
    assert outcomes[0] == outcomes[1] == (ValueError, f"no value at t={bad!r}")
    # the first block runs here, a short last block joins the next tag set's task:
    # the nominal's blocks 2 and 3, or those two tasks and the probe's blocks 2 and 3
    assert len(ex.futures) == (2 if kind == "nominal" else 4)
    assert all(f.done() for f in ex.futures)


@pytest.mark.parametrize("kind", ["column", "variational"])
def test_an_error_mid_stream_in_a_batched_small_level_is_the_serial_one(monkeypatch, kind):
    # 3,000 rows of 64 columns: the nominal runs here, then 11 tag sets to a
    # task (33,000 rows); the 14th probe fails, in the second task
    n, m = 3000, 64
    tags, w = _level(n)
    probes = [tags + j * 1e-7 / n for j in range(1, 21)]
    bad = probes[13][0]
    c = np.linspace(0.0, 1.0, m)

    def f(ts):
        if ts[0] == bad:
            raise ValueError(f"no value at t={ts[0]!r}")
        return np.cos(ts[:, None] + c)

    eval_blocks = it._pooled(lambda ts, blocks: (f(ts),))
    cells = {0: np.zeros((n, m))} if kind == "variational" else None
    outcomes, seen, ex = [], [], _Pool()

    def visit(i, sums):
        seen.append(i)
        return [0]

    try:
        for use in (None, ex):
            _use(monkeypatch, use)
            del seen[:]
            with pytest.raises(ValueError) as e:
                it._level_sums(len(w), lambda rows: w[rows, 0],
                               [lambda rows, p=p: p[rows] for p in [tags, *probes]],
                               eval_blocks, [0], (m,), visit, cells)
            outcomes.append((type(e.value), str(e.value), list(seen)))
            assert not any(f.running() for f in ex.futures)
    finally:
        ex.shutdown()
    assert outcomes[0] == outcomes[1] == (ValueError, f"no value at t={bad!r}", list(range(14)))
    assert len(ex.futures) == 2 and all(f.done() for f in ex.futures)  # probes 1-11, 12-20


def _bits(fn):
    """Result bits, or the type and message of the error raised."""
    try:
        return [np.asarray(s).view(np.int64).tolist() for s in fn()]
    except (OverflowError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("spike", [[math.inf], [math.nan], [math.inf, -math.inf],
                                   [1.5e308, 1.5e308]])
def test_a_nominal_block_with_inf_or_nan_falls_back_as_the_serial_loop(monkeypatch, spike):
    n = 3 * B + 7
    tags, w = _level(n)
    rows = B + 11 + 97 * np.arange(len(spike))
    w[rows] = 1.0  # so each spike's term is its value

    def f(ts):
        out = np.column_stack([ts, np.sin(1.0 / ts)])
        lo = int(np.searchsorted(tags, ts[0]))
        hit = (rows >= lo) & (rows < lo + len(ts))
        out[rows[hit] - lo, 1] = np.array(spike)[hit]
        return out

    calls = []

    def ev(ts, blocks):
        calls.append(len(ts))
        return (f(ts),)

    eval_blocks = it._pooled(ev)
    fsums = _bits(lambda: [[math.fsum(c.tolist()) for c in (f(tags) * w).T]])
    outcomes, ex = [], _Pool()
    try:
        for use in (None, ex):
            _use(monkeypatch, use)
            outcomes.append(_bits(lambda: _sums(tags, w, eval_blocks)))
    finally:
        ex.shutdown()
    assert outcomes[0] == outcomes[1] == fsums
    # only row blocks, serial and pooled: the spike's block joins math.fsum as its terms
    assert ex.futures and sorted(calls) == sorted([B, B, B, 7] * 2)


@pytest.mark.parametrize("spike", [[math.inf], [math.nan], [1.5e308, 1.5e308]])
def test_the_nominal_fallback_holds_in_a_batched_small_level(monkeypatch, spike):
    # 3,000 rows of 64 columns: the probes go to the pool in tasks of several tag sets
    n, m = 3000, 64
    tags, w = _level(n)
    rows = 1234 + 97 * np.arange(len(spike))
    w[rows] = 1.0
    c = np.linspace(0.0, 1.0, m)

    def f(ts):
        out = np.cos(ts[:, None] + c)
        if ts[0] == tags[0]:  # the nominal
            out[rows, 5] = spike
        return out

    eval_blocks = it._pooled(lambda ts, blocks: (f(ts),))
    probes = [lambda rows, j=j: tags[rows] + j * 1e-7 / n for j in range(1, 19)]

    def sums():
        out = []
        it._level_sums(len(w), lambda rows: w[rows, 0], [lambda rows: tags[rows], *probes],
                       eval_blocks, [0], (m,), lambda i, s: out.append(s[0]) or [0])
        return [np.asarray(s).view(np.int64).tolist() for s in out]

    outcomes, ex = [], _Pool()
    try:
        for use in (None, ex):
            _use(monkeypatch, use)
            try:
                outcomes.append(sums())
            except (OverflowError, ValueError) as e:
                outcomes.append((type(e), str(e)))
    finally:
        ex.shutdown()
    assert outcomes[0] == outcomes[1]
    fsums = _bits(lambda: [[math.fsum(col.tolist()) for col in (f(tags) * w).T]])
    if isinstance(fsums, tuple):  # the nominal raises before any probe is made
        assert outcomes[0] == fsums and not ex.futures
    else:
        assert outcomes[0][:1] == fsums and ex.futures


# -- the pool's size ---------------------------------------------------------------

@pytest.mark.parametrize("cpus, workers", [({0}, None), ({0, 1}, 2), ({0, 1, 2, 3}, 2)])
def test_the_pool_is_sized_from_the_cpus_this_process_may_use(monkeypatch, cpus, workers):
    monkeypatch.setattr(it.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    it._pool.cache_clear()
    try:
        before = set(threading.enumerate())
        made = it._pool()
        if workers is None:
            assert made is None
            it.henstock_integrate(corpus.corpus_get("G1"),
                                  corpus.named_schedule("henstock-origin", levels=10), 1e-3)
            assert set(threading.enumerate()) <= before  # no thread was made
        else:
            assert made._max_workers == workers
            made.shutdown()
    finally:
        it._pool.cache_clear()


def _g1_estimate():
    sched = corpus.named_schedule("henstock-origin", levels=10)
    return it.henstock_integrate(corpus.corpus_get("G1"), sched, 1e-3).estimate_values


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    # the parent's idle workers do not exist in a forked child; a child that
    # kept the parent's pool would hand it blocks that no thread takes
    monkeypatch.setattr(it.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    it._pool.cache_clear()
    try:
        estimate = _g1_estimate()  # the pool is made and its workers left idle
        with multiprocessing.get_context("fork").Pool(1) as child:
            assert child.apply_async(_g1_estimate).get(timeout=60) == estimate
    finally:
        made = it._pool()
        it._pool.cache_clear()
        made.shutdown()
