"""Row blocks evaluated on two threads: the same bits, errors and threads as one.

integrators._block_results hands each row block's evaluation, weighting and
reduction to a pool of worker threads when the evaluator is one the library
built (integrators._pooled) and the level spans more than one _ROW_BLOCK;
the tags are still made on the calling thread, in row order.  The cases
here run with a pool the test owns (two workers, whatever the CPUs this
process may use) against the serial loop (_pool patched to give None), at
levels that span several row blocks.
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


# -- errors and the exact nominal fallback -----------------------------------------

def _level(n):
    """n cells of uneven widths tiling [0, 1]: increasing midpoint tags and (n, 1) widths."""
    widths = np.random.default_rng([n, 9]).uniform(0.5, 1.5, n)
    edges = np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    return (edges[:-1] + edges[1:]) / 2.0, np.diff(edges)[:, None]


@pytest.mark.parametrize("kind", ["nominal", "column", "variational"])
def test_an_error_in_the_second_of_three_blocks_is_the_serial_one(monkeypatch, kind):
    n = 3 * B - 5
    tags, w = _level(n)

    def f(ts):
        if tags[B] <= ts[0] < tags[2 * B]:
            raise ValueError(f"no value at t={ts[0]!r}")
        return np.column_stack([ts, 1.0 - ts])

    eval_blocks = it._pooled(lambda ts, blocks: (f(ts),))

    def run():
        if kind == "nominal":
            return it._nominal_sums(tags, w, eval_blocks, [0], (2,))
        cells = {0: np.zeros((n, 2))} if kind == "variational" else None
        return it._streamed_sums(lambda rows: tags[rows], w, eval_blocks, [0], cells)

    outcomes, ex = [], _Pool()
    try:
        for use in (None, ex):
            _use(monkeypatch, use)
            with pytest.raises(ValueError) as e:
                run()
            outcomes.append((type(e.value), str(e.value)))
            assert not any(f.running() for f in ex.futures)
    finally:
        ex.shutdown()
    assert outcomes[0] == outcomes[1] == (ValueError, f"no value at t={tags[B]!r}")
    assert len(ex.futures) == 3 and all(f.done() for f in ex.futures)


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

    whole = []

    def ev(ts, blocks):
        if len(ts) == n:
            whole.append(threading.get_ident())
        return (f(ts),)

    eval_blocks = it._pooled(ev)
    fsums = _bits(lambda: [[math.fsum(c.tolist()) for c in (f(tags) * w).T]])
    outcomes, ex = [], _Pool()
    try:
        for use in (None, ex):
            _use(monkeypatch, use)
            outcomes.append(_bits(lambda: it._nominal_sums(tags, w, eval_blocks, [0],
                                                           (2,)).values()))
    finally:
        ex.shutdown()
    assert outcomes[0] == outcomes[1] == fsums
    assert ex.futures and whole == [threading.get_ident()] * 2  # the level again, here


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
