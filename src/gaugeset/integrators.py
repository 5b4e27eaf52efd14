"""Riemann-sum machinery over delta-fine partitions and all integral notions.

Every integral here is a limit of Riemann sums

    S(Gamma, P) = sum_i |I_i| * Gamma(t_i)

over tagged partitions P filtered by a shrinking schedule of gauges; the
notions differ only in which partitions compete: Perron tags (Henstock),
free tags (McShane), measurable gauges (the measurable-gauge variants),
finite measurable partitions with unconditional sums (Birkhoff), and
summed primitive-vs-term Hausdorff gaps (variational).

The true integrals quantify over all delta-fine partitions, which no finite
run can check, so convergence is declared from observable surrogates:

  - Cauchy residuals between consecutive level estimates,
  - tag-robustness probes: seeded re-taggings of each level's partition
    plus a deterministic ladder of near-edge tags, all validity-filtered
    against the gauge; their spread folds into the level residual,
  - a divergence bound (any sum with norm above 10^3) and a monotone-growth
    rule (effective residuals strictly increasing across four levels).

The effective residual of a level is max(Cauchy residual, probe spread).
A run converges when the last effective residual is below tol and the last
three never bounce back above tol; it diverges when the bound fires or the
growth rule holds; otherwise it is inconclusive.

Nominal, Birkhoff and variational gap sums are exactly rounded
(_fsum_columns: math.fsum's value bit for bit), hence permutation
invariant; probe sums use a deterministic pairwise tree reduction.  One
rule makes every exact sum: _extract splits each row block into exact pass
totals, or keeps the terms of a block past its extraction limit (inf, nan
or a huge term), and math.fsum of all of them is the sum, or its error.

Two level loops exist.  _run_schedule runs every method over Cousin
partitions (Henstock, McShane, scalar, directional and variational), each
level's partition built from [0, 1] for that level's gauge.  It carries
several blocks at once, each with its own level values, verdict and stop,
so a set and its selection's components, or t55's Gamma, {f} and G, share
each level's partition, probe tags and evaluation, and each block's result
is bit-identical to running it alone.  birkhoff_integrate keeps its own
loop over measurable partitions.  Both loops hand each level to _record,
the one place a level becomes a LevelStat and meets the run's divergence
bound, and _assemble builds every report.

A Cousin level is read in row blocks of its codes (two bytes a cell), and
every tag set is made, evaluated and reduced in them through one stream
(_level_stream), with the bits of whole-array sums.  On a level that is not
cheap, blocks of an evaluator the library marked (_pooled) run on two worker
threads, from draws taken in row order; results are taken in order too.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import time
import weakref
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .convex_sets import Primitive, SupportSet, canonical_values
from .errors import PackingTruncated
from .partitions import _ROW_BLOCK, _WIDTHS, Gauge, _window_fine, cousin_build, measurable_partition

DIVERGENCE_BOUND = 1e3
DEFAULT_LEVELS = 12
DEFAULT_TOL_D1 = 1e-4
DEFAULT_TOL_D2 = 1e-3
_GROWTH_EPS = 1e-9
_BIRKHOFF_TRIALS = 8  # seeded tag draws per Birkhoff level
_PACK_RESTARTS = 16  # greedy packings per variational-measure level
_PACK_MAX_ITEMS = 200_000  # loop guard of one greedy packing component
_PACK_DRAW_BLOCK = 512  # uniform doubles a packing draws ahead at a time
_PACK_WALK_STEPS = 1 << 13  # steps a constant-gauge walk accumulates at a time
# _ROW_BLOCK: rows of a tag set evaluated at a time, and the fewest of a pooled task.  Sums keep
# their bits under any block size, but d=2 Steiner points come from a BLAS product whose bits
# move with its row count (at 2^12, G4 steiner t33's levels 10-12); they fit in one.
_POOL_WORK = 1 << 17  # rows x folded width below which a one-block level stays serial
CSV_HEADER = "level,residual,max_dir_residual,wall_ms"


# -- gauge schedules ---------------------------------------------------------

@dataclass(frozen=True)
class GaugeSchedule:
    """Pointwise nonincreasing sequence of gauges delta_1 >= delta_2 >= ...

    The check below compares 1001 sampled points exactly; it is an input
    check, and no build relies on the order of the gauges.
    """

    levels: tuple
    name: str = "custom"

    def __post_init__(self):
        if not self.levels:
            raise ValueError("schedule needs at least one gauge")
        pts = np.linspace(0.0, 1.0, 1001)
        prev = None
        for g in self.levels:
            cur = np.atleast_1d(g(pts))
            if prev is not None and np.any(cur > prev):
                raise ValueError("schedule gauges must be pointwise nonincreasing")
            prev = cur

    @property
    def measurable(self):
        """True when every gauge is piecewise constant, hence measurable."""
        return all(g.kind == "piecewise" for g in self.levels)

    def describe(self):
        return {"name": self.name, "levels": len(self.levels)}


def uniform_schedule(base=0.25, levels=DEFAULT_LEVELS):
    """Constant gauges base/2^n, n = 1..levels."""
    gs = tuple(Gauge.constant(base / 2.0 ** n) for n in range(1, levels + 1))
    return GaugeSchedule(gs, name=f"uniform({base:g},L{levels})")


def measurable_uniform_schedule(base=0.25, levels=DEFAULT_LEVELS):
    """Same widths as uniform_schedule but as one-piece measurable gauges."""
    gs = tuple(
        Gauge.step(np.array([0.0, 1.0]), np.array([base / 2.0 ** n]), name="measurable-const")
        for n in range(1, levels + 1)
    )
    return GaugeSchedule(gs, name=f"measurable-uniform({base:g},L{levels})")


def origin_schedule(h0, h_factor, c0, c_factor, levels=DEFAULT_LEVELS, name="origin"):
    """Origin-absorbing gauges: delta_n(0) = h0*h_factor^n, else c0*c_factor^n*t^2.

    The wide window at t = 0 lets bisection accept the first cell at tag 0,
    where a singular integrand is defined to vanish; the quadratic branch
    forces every other cell to be resolved at scale t^2.  This is the
    witness-gauge family for derivatives of t^2 sin(t^-2)-type primitives.

    A gauge's bounds on a cell [a, b] with a > 0 are cn * a * a below
    (Gauge.lower) and cn * b * b above (Gauge.upper): (cn * u) * u is
    monotone in u under correct rounding.  At a = 0 they are 0 and inf.
    """
    def make(n, hn, cn):
        def fn(ts):
            ts = np.asarray(ts, dtype=np.float64)
            return np.where(ts <= 0.0, hn, cn * ts * ts)

        return Gauge("callable", fn=fn, name=f"{name}[{n}]", lower=lambda a: cn * a * a,
                     upper=lambda a, b: np.where(a > 0.0, cn * b * b, np.inf))

    hs = [h0 * h_factor ** n for n in range(1, levels + 1)]
    cs = [c0 * c_factor ** n for n in range(1, levels + 1)]
    gs = tuple(make(n, hn, cn) for n, (hn, cn) in enumerate(zip(hs, cs), start=1))
    return GaugeSchedule(gs, name=f"{name}(L{levels})")


# -- exact summation helpers -------------------------------------------------

_SUM_BLOCK = 1 << 16  # elements per extraction block, so its passes stay in cache
_SUM_LIMIT_EXP = 1000  # blocks reaching 2^(1000 - k), inf or nan join math.fsum as terms
_NARROW_ROW = 8  # rows of fewer float64s than a 64-byte cache line are reduced column-major
_PAIRWISE_MAX_WIDTH = 32  # widest rows whose max is taken by pairwise column halves


def _fsum_columns(terms):
    """math.fsum of each column of an (N, m) array, bit for bit.

    Error-free extraction (Rump, Ogita and Oishi 2008), in two steps:
    _extract collects each column's exact pass totals and _fsum_totals
    rounds them once, so a caller may feed an array's rows in blocks and
    take math.fsum of all their totals at the end (never of rounded block
    sums).  _extract alone decides which blocks it can split (see there).
    """
    x = np.ascontiguousarray(terms, dtype=np.float64)
    if x.size == 0:
        return np.zeros(x.shape[1])
    return _fsum_totals(_extract(x, []), x.shape[1])


def _extract(x, totals, w=None):
    """Append the exact column totals of each extraction pass over x to ``totals``.

    x is (n, m), weighted block by block (x * w[:, None]) given widths
    ``w``.  In a block of at most 2^(k-1) rows with |x| < 2^e, q = (x + s)
    - s with s = 2^(e+k) is a multiple of 2^(e+k-53) with |q| <= 2^e, so
    every partial sum of q is exact and the block's column sums of q may be
    taken in any order (numpy sums, free of BLAS).  x - q is exact too and
    below 2^(e+k-53), so repeating on it until nothing is left splits each
    column into a few exact pass totals.  The one rule of every exact sum
    here: a block holding inf, nan or |x| >= 2^(1000-k), where s would
    overflow, appends a copy of its rows of terms instead, and math.fsum of
    all those totals and terms (_fsum_totals) is math.fsum's value of the
    columns, or its error, independent of the row order and of how the rows
    were split into calls.
    """
    rows = min(len(x), max(1, _SUM_BLOCK // x.shape[1]))
    k = (2 * rows - 1).bit_length()
    q_buf, r_buf = np.empty((rows, x.shape[1])), np.empty((rows, x.shape[1]))
    for lo in range(0, len(x), rows):
        src = x[lo:lo + rows]
        b = len(src)
        q, r = q_buf[:b], r_buf[:b]
        if w is not None:
            src = np.multiply(src, w[lo:lo + rows, None], out=r)
        big = max(src.max(), -src.min())
        if not big < math.ldexp(1.0, _SUM_LIMIT_EXP - k):  # nan compares False
            totals.extend(src.copy())  # its rows as terms; r_buf is reused
            continue
        while big:
            s = math.ldexp(1.0, math.frexp(big)[1] + k)
            np.add(src, s, out=q)
            q -= s
            # numpy sums along rows narrower than _NARROW_ROW slowly: those go by column
            totals.append(q.sum(axis=0) if q.shape[1] >= _NARROW_ROW else [c.sum() for c in q.T])
            src = np.subtract(src, q, out=r)
            big = max(r.max(), -r.min())
    return totals


def _fsum_totals(totals, m):
    """math.fsum of each of m columns of pass totals and term rows (_extract), in
    their order; zeros when there are none."""
    if not totals:
        return np.zeros(m)
    return np.array([math.fsum(col) for col in np.array(totals).T.tolist()])


def _fsum(*parts):
    """math.fsum of the 1-D arrays ``parts`` as one vector, uncopied (see _fsum_columns)."""
    totals = []
    for p in parts:
        if len(p):
            _extract(p[:, None], totals)
    return float(_fsum_totals(totals, 1)[0])


def _tree_sum_columns(terms):
    """Deterministic pairwise reduction; order error below 1e-15 per value.

    Each step adds rows 2i and 2i + 1 into row i and carries an odd last
    row, through two reused buffers.  Rows narrower than a cache line are
    reduced column-major, where each add runs along a column; while the
    row count is even, rows 2i and 2i + 1 of every column are neighbours in
    the column-major array, so one 1-D add does the step.
    """
    order = "F" if terms.shape[1] < _NARROW_ROW else "C"
    x = np.asarray(terms, dtype=np.float64, order=order)
    n, m = x.shape
    half = (n + 1) // 2
    bufs = np.empty(half * m), np.empty((half + 1) // 2 * m)
    i = 0
    while n > 1:
        h = n // 2
        dst = bufs[i][:(n - h) * m].reshape(n - h, m, order=order)
        if order == "F" and not n % 2:
            flat = x.reshape(-1, order="F")
            np.add(flat[0::2], flat[1::2], out=bufs[i][:h * m])
        else:
            np.add(x[0:2 * h:2], x[1:2 * h:2], out=dst[:h])
            if n % 2:
                dst[h] = x[n - 1]
        x, n, i = dst, n - h, 1 - i
    return x[0].copy()


def _tree_sum_weighted(v, w):
    """_tree_sum_columns(_weighted(v, w)) bit for bit, weighting aligned chunks of
    2^j rows (about _SUM_BLOCK values) one at a time (the proof in _level_sums)."""
    s = 1 << (max(1, _SUM_BLOCK // v.shape[1]).bit_length() - 1)
    return _tree_sum_columns(np.array([_tree_sum_columns(_weighted(v[lo:lo + s], w[lo:lo + s]))
                                       for lo in range(0, len(v), s)]))


def _folded(x):
    """The (N, 1) first column of an (N, m) array whose m > 1 columns are one.

    A support array broadcast along its directions (strides[1] == 0, as
    np.broadcast_to gives for a set that is the same in every direction)
    holds one column in memory, and every reduction here is per column or
    a row max, so it is reduced once and its result widened (_widened).
    This is decided from the strides alone, never by comparing values; any
    other array is returned as it is.
    """
    if x.ndim == 2 and x.shape[1] > 1 and x.strides[1] == 0:
        return x[:, :1]
    return x


def _widened(s, m):
    """Column results ``s`` of a folded array, one per column of the m-wide original."""
    return s if len(s) == m else np.repeat(s, m)


def _row_max(a):
    """np.max(a, axis=1) of a nonnegative (or nan) array.

    Up to _PAIRWISE_MAX_WIDTH columns, pairwise np.maximum over column halves
    is faster (each call runs along all rows) and, max being exact, gives
    the same bits.
    """
    if a.shape[1] > _PAIRWISE_MAX_WIDTH:
        return np.max(a, axis=1)
    while a.shape[1] > 1:
        h = a.shape[1] // 2
        b = np.maximum(a[:, :h], a[:, h:2 * h])
        if a.shape[1] % 2:
            np.maximum(b[:, :1], a[:, 2 * h:], out=b[:, :1])
        a = b
    return a[:, 0]


# -- reports -----------------------------------------------------------------

@dataclass
class LevelStat:
    level: int
    n_items: int
    residual: float | None
    probe_spread: float
    eff_residual: float
    sum_norm: float
    wall_ms: float

    def to_json_dict(self, deterministic=False):
        return {
            "level": self.level,
            "n_items": self.n_items,
            "residual": self.residual,
            "probe_spread": self.probe_spread,
            "eff_residual": self.eff_residual,
            "max_dir_residual": self.eff_residual,  # the per-direction max
            "sum_norm": self.sum_norm,
            "wall_ms": 0.0 if deterministic else self.wall_ms,
        }


@dataclass
class IntegrationReport:
    """Estimate, per-level diagnostics and verdict of one integrator run."""

    report_id: str
    method: str
    entry: str
    d: int
    m: int
    tol: float
    seed: int
    verdict: str
    estimate: SupportSet | None
    estimate_values: tuple
    scalar: bool
    levels: list
    schedule: dict
    flags: dict = field(default_factory=dict)
    divergence: dict | None = None
    per_direction: dict | None = None

    @property
    def value(self):
        if not self.scalar:
            raise ValueError("not a scalar report")
        return self.estimate_values[0]

    def to_json_dict(self, deterministic=False):
        return {
            "report_id": self.report_id,
            "method": self.method,
            "entry": self.entry,
            "d": self.d,
            "m": self.m,
            "tol": self.tol,
            "seed": self.seed,
            "verdict": self.verdict,
            "scalar": self.scalar,
            "estimate": list(self.estimate_values),
            "levels": [s.to_json_dict(deterministic) for s in self.levels],
            "schedule": self.schedule,
            "flags": self.flags,
            "divergence": self.divergence,
            "per_direction": self.per_direction,
        }

    def csv_rows(self, deterministic=False):
        rows = [CSV_HEADER]
        for s in self.levels:
            res = "" if s.residual is None else repr(s.residual)
            ms = 0.0 if deterministic else s.wall_ms
            rows.append(f"{s.level},{res},{repr(s.eff_residual)},{ms:.3f}")
        return rows


def _no_bounce(effs, tol):
    """Final-three effective residuals never rise back above tol."""
    tail = effs[-3:]
    for prev, nxt in zip(tail, tail[1:]):
        if nxt > max(prev, tol) * (1.0 + _GROWTH_EPS):
            return False
    return True


def _strict_growth(effs, window=4):
    if len(effs) < window:
        return False
    tail = effs[-window:]
    return all(b > a * (1.0 + _GROWTH_EPS) for a, b in zip(tail, tail[1:]))


def _verdict(effs, tol, fired):
    if fired:
        return "diverged"
    if not effs:
        return "inconclusive"
    if _strict_growth(effs):
        return "diverged"
    if effs[-1] < tol and _no_bounce(effs, tol):
        return "converged"
    return "inconclusive"


# -- shared Riemann-sum engine -----------------------------------------------

def _uniform(u, lo, hi):
    """rng.uniform(lo, hi) bit for bit, given u = rng.random(len(lo))."""
    return lo + (hi - lo) * u


def _free_tags(a, b, gauge, u):
    """Free tags of cells [a, b] from draws u: uniform in the midpoints' windows, in [0, 1]."""
    mid = (a + b) / 2.0
    radius = np.atleast_1d(gauge(mid))
    return _uniform(u, np.maximum(0.0, mid - radius), np.minimum(1.0, mid + radius))


def _probe_tag_sets(P, gauge, rng, mode, keep=False):
    """Every tag set of one Cousin level P: the nominal, then the re-tagging probes.

    A tag set is a block-maker: ``make(rows)`` takes the seeded draws of
    the row block ``rows`` (chunked rng.random draws equal a whole draw, so
    each maker is called on the blocks in order before the next) and returns
    a function making the block's tags from them and P.block(rows).  The
    nominal is P's own tags in henstock mode, else seeded free tags.  A
    probe falls back cellwise, where a candidate is not fine, to the build
    tag, or with ``keep`` to the nominal free tag (then kept whole).  A
    henstock row with w < gauge.lower(a) keeps any in-cell candidate with
    no gauge call, and a block's other (open) rows are found once where
    few; the free-mode window rule checks every row.
    """
    henstock = mode == "henstock"
    kept = np.empty(len(P)) if keep and not henstock else None
    opened = {}  # each row block's open rows where few; a race only finds them twice

    def fine_or(candidates, draws=False, fallback=kept):
        def make(rows):
            u = rng.random(len(range(*rows.indices(len(P))))) if draws else None

            def tags():
                a, b, t, w = P.block(rows)
                x = candidates(a, b, w, u)
                if not henstock:
                    return np.where(_window_fine(a, b, x, gauge), x,
                                    t() if fallback is None else fallback[rows])
                i = opened.get(rows.start)
                if i is None:  # the open rows, kept where at most a sixteenth of the block's
                    i = np.flatnonzero(~(w < gauge.lower(a))).astype(np.uint16)
                    if 16 * len(i) <= len(w):
                        opened[rows.start] = i
                if len(i):
                    bad = i[~(w[i] < np.atleast_1d(gauge(x[i])))]
                    x[bad] = t(bad)
                return x
            return tags
        return make

    def nominal(rows):  # in keep mode made at once, the probes' fallback
        tags = (lambda: P.block(rows)[2]()) if henstock else free(rows)
        if kept is not None:
            kept[rows] = tags = tags()
        return tags

    free = fine_or(lambda a, b, w, u: _free_tags(a, b, gauge, u), True, None)
    yield nominal
    for _ in range(8):  # seeded in-cell / in-window re-tags
        yield fine_or(lambda a, b, w, u: _uniform(u, a, b) if henstock
                      else _free_tags(a, b, gauge, u), True)
    # deterministic near-edge ladder; geometric approach to the left edge
    for i in (1, 2, 3, 4, 6, 8):
        yield fine_or(lambda a, b, w, u, s=4.0 ** (-i): a + w * s)
    for i in (1, 2, 4, 8):
        yield fine_or(lambda a, b, w, u, s=4.0 ** (-i): b - w * s)
    if not henstock:
        for i in (2, 4, 6, 8):  # free tags may leave the cell toward 0
            yield fine_or(lambda a, b, w, u, s=4.0 ** (-i): a * s)


def _weighted(v, w):
    """v * w[:, None], laid out as _tree_sum_columns reduces it.

    Rows narrower than _NARROW_ROW are multiplied column by column into a
    column-major array: a broadcast multiply along such short rows is slow,
    and a row-major product would be copied to column-major again.
    """
    if v.shape[1] >= _NARROW_ROW:
        return v * w[:, None]
    out = np.empty(v.shape, order="F")
    for j in range(v.shape[1]):
        np.multiply(v[:, j], w, out=out[:, j])
    return out


def _gaps(cells, v, w):
    """Each row's max_j |cells[:, j] - v[:, j] * w|, as a new vector.

    Rows narrower than _NARROW_ROW are taken column by column, with a running
    max, wider ones _SUM_BLOCK values at a time; max is exact, so the bits are
    _row_max's.  Rows of broadcast ``cells`` and ``v`` (_folded) hold one gap.
    """
    out = np.empty(len(w))
    if _folded(cells).shape[1] == _folded(v).shape[1] == 1:
        cells, v = cells[:, :1], v[:, :1]
    if v.shape[1] >= _NARROW_ROW:
        step = max(1, _SUM_BLOCK // v.shape[1])
        for lo in range(0, len(w), step):
            d = np.subtract(cells[lo:lo + step], v[lo:lo + step] * w[lo:lo + step, None])
            out[lo:lo + step] = _row_max(np.abs(d, out=d))
        return out
    d = np.empty(len(w))
    for j in range(v.shape[1]):
        dst = d if j else out
        np.multiply(v[:, j], w, out=dst)
        np.subtract(cells[:, j], dst, out=dst)
        np.abs(dst, out=dst)
        if j:
            np.maximum(out, d, out=out)
    return out


def _fsum_at_most(parts, ref):
    """True when a float bound shows math.fsum(x) <= ref, for x >= 0 (or nan) in ``parts``.

    Any summation order of n nonnegative terms errs by at most
    gamma_(n-1) = (n - 1) u / (1 - (n - 1) u) of the exact sum s, with
    u = 2^-53 (Higham 2002, section 4.2), so s <= total / (1 - gamma).
    The factor 1 + n 2^-50 is exact below n = 2^50 and exceeds
    1 / ((1 - gamma) (1 - u)), which also covers the product's rounding;
    math.fsum(x), s correctly rounded, is then at most ref too.  A nan or
    inf sum, or an inf ref, answers False.
    """
    with np.errstate(over="ignore"):  # total: the sum of the parts' np.sums
        total = sum(np.sum(p) for p in parts)
        return bool(total * (1.0 + sum(map(len, parts)) * 2.0 ** -50) <= ref < math.inf)


# -- the evaluation pool -----------------------------------------------------

_POOLED = weakref.WeakSet()  # evaluators the library built: effect-free and thread-safe
_IN_FLIGHT = 2  # tasks handed to the pool and not yet taken back; each makes its own tags


def _pooled(fn, *parts):
    """Mark ``fn`` for the evaluation pool when every one of ``parts`` is; return fn.

    Only the library marks evaluators: a registry entry's when it is
    registered (corpus._register), its own selection picks
    (Selection._of_support), and what it composes of those alone
    (_one_block, a selection read off a corpus entry, its remainder and
    singleton, the shared-pass block evaluators).  Any other evaluator, a
    user's or a wrapper of a marked one (such as a timing wrapper), runs on
    the calling thread.
    """
    if all(p in _POOLED for p in parts):
        _POOLED.add(fn)
    return fn


@functools.lru_cache(maxsize=None)
def _pool():
    """The evaluation pool, made at first use; None where this process may use
    one CPU only, and then no thread is made.  Two workers at most."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(2, thread_name_prefix="gaugeset-eval")


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _level_stream(n, makers, eval_blocks, blocks, reduce, finish):
    """Every tag set of one level of n rows, made, evaluated and reduced in row blocks.

    make(rows) in ``makers`` gives a tag set's tags of cells ``rows``, or a
    function that makes them where the block is evaluated; make is called
    here block after block, so rng draws keep order.  A block of tag set
    i is reduced as reduce(i, rows, eval_blocks(tags, ks), ks), ks the blocks
    live as it starts; finish(i, parts, live) gets the set's reductions in row
    order and returns the blocks to go on with (none ends the stream).  No
    block is evaluated twice, and an error ends the stream where the serial
    loop meets it.  The first block runs here; with a _pooled evaluator, a
    level of more than one row block, or whose rows times that block's folded
    width reach _POOL_WORK, runs the rest on the pool in the caller's context,
    in tasks of at least _ROW_BLOCK rows across tag sets, at most _IN_FLIGHT at
    once, with the serial loop's results and errors.
    """
    per_set, live, parts = -(-n // _ROW_BLOCK), list(blocks), []
    pool, pending, task = None, deque(), []

    def run(items):  # an error ends the task, to be raised when taken
        nonlocal pool
        out = []
        try:
            for i, rows, ts in items:
                ks = live
                vals = eval_blocks(ts() if callable(ts) else ts, ks)
                if not (i or rows.start) and eval_blocks in _POOLED and (n > _ROW_BLOCK or n * sum(
                        _folded(vals[k]).shape[1] for k in ks) >= _POOL_WORK):
                    pool = _pool()
                out.append((i, reduce(i, rows, vals, ks)))
                del vals  # before the next row block is evaluated
        except Exception as e:
            out.append((None, e))
        return out

    def take(results):  # False once no block is live
        nonlocal live, parts
        for i, part in results:
            if isinstance(part, Exception):
                raise part
            parts.append(part)
            if len(parts) == per_set:
                live, parts = finish(i, parts, live), []
                if not live:
                    return False
        return True

    def flush():
        nonlocal task
        if pool is not None and len(pending) == _IN_FLIGHT and not take(pending.popleft().result()):
            return False
        items, task = task, []
        if pool is None:
            return take(run(items))
        pending.append(pool.submit(contextvars.copy_context().run, run, items))
        return True

    try:
        for i, make in enumerate(makers):
            for lo in range(0, n, _ROW_BLOCK):
                rows = slice(lo, lo + _ROW_BLOCK)
                task.append((i, rows, make(rows)))
                if (pool is None or sum(min(n, x[1].stop) - x[1].start for x in task) >= _ROW_BLOCK
                        ) and not flush():
                    return
        if task and not flush():
            return
        while pending:
            if not take(pending.popleft().result()):
                return
    finally:
        for f in pending:
            if not f.cancel():
                f.exception()  # wait for a running task; its error, if any, is dropped


def _level_sums(n, widths, makers, eval_blocks, blocks, ms, visit, cells=None, worst=None):
    """Each tag set's sums of one Cousin level, handed to visit(i, {block: sums}) in order.

    The tag sets are the block-makers ``makers``, the nominal (i = 0) first,
    over n rows; widths(rows) gives a row block's widths, and visit returns
    the blocks to go on with (_level_stream).  Nominal column sums (``cells`` None) are
    _fsum_columns of the whole (N, m) term array, from what _extract keeps
    of each row block: its pass totals, or its terms past the limit.  A probe's
    column sums tree-sum its row blocks' tree sums, the whole array's bits:
    _tree_sum_columns pairs rows 2i and 2i + 1 and carries an odd last row,
    so an aligned block of 2^k rows pairs up as it would alone, the short
    last block ends the array and carries its odd last rows as it would
    alone, and after k steps the array holds the block partials (a
    broadcast block is reduced as its one column).  Variational sums
    (``cells`` {block: (N, m) primitive values}) are exact sums of the row
    max gaps (_gaps); given ``worst`` {block: running worst sum}, a probe
    that _fsum_at_most shows cannot pass its worst gets that worst.
    """
    def reduce(i, rows, vals, ks):
        out, w = {}, widths(rows)
        for k in ks:
            v = _folded(vals[k])
            if cells is not None:
                out[k] = _gaps(cells[k][rows], vals[k], w)
            elif i:
                out[k] = _tree_sum_weighted(v, w)
            else:
                out[k] = _extract(v, [], w)
        return out

    def finish(i, parts, ks):
        cols = {k: [x[k] for x in parts] for k in ks}
        if cells is not None:
            return visit(i, {k: worst[k] if i and worst and _fsum_at_most(p, worst[k])
                             else _fsum(*p) for k, p in cols.items()})
        return visit(i, {k: _widened(_tree_sum_columns(np.array(p)) if i else _fsum_totals(
            [t for ts in p for t in ts], ms[k]), ms[k]) for k, p in cols.items()})

    _level_stream(n, makers, eval_blocks, blocks, reduce, finish)


def _new_run(m):
    """Empty level record of one run over m columns, with the run's divergence bound."""
    return {"stats": [], "effs": [], "nominals": [], "eff_cols": [], "bound": DIVERGENCE_BOUND,
            "fired_dirs": np.zeros(m, dtype=bool), "fired_level": None}


def _record(run, level, n_items, value, spread, peak, wall_ms, nominal=None):
    """Append one level to ``run``; True when it fires, which ends the run.

    The one place a level becomes a LevelStat and meets the run's bound.  An
    array ``value`` holds column sums: a column's effective residual is the
    larger of its change from the last level and its probe ``spread``, and
    it fires when its ``peak`` (largest |sum| over the tag sets) passes the
    bound.  sum_norm is max |nominal| if given (Birkhoff, whose value is a
    trial's sum), else max |value|.  A scalar (variational) value is its own
    effective residual and sum norm, and fires with no direction.
    """
    over = peak > run["bound"]
    if np.ndim(value) == 0:
        stat = LevelStat(level, n_items, None, spread, value, value, wall_ms)
    else:
        resid = np.abs(value - run["nominals"][-1]) if run["nominals"] else None
        eff_cols = spread if resid is None else np.maximum(spread, resid)
        stat = LevelStat(
            level, n_items, None if resid is None else float(resid.max()),
            float(spread.max()), float(eff_cols.max()),
            float(np.abs(value if nominal is None else nominal).max()), wall_ms)
        run["eff_cols"].append(eff_cols)
        run["fired_dirs"] |= over
    run["stats"].append(stat)
    run["effs"].append(stat.eff_residual)
    run["nominals"].append(value)
    if np.any(over):
        run["fired_level"] = level
    return run["fired_level"] is not None


def _run_schedule(eval_blocks, ms, schedule, seed, mode, phis=None):
    """The level loop of every run over Cousin partitions.

    ``eval_blocks(tags, blocks)`` returns one (N, m_b) array per block, with
    ``ms`` the block widths; the entry of a block not in ``blocks`` is never
    read and may be None.  All blocks share each level's partition, tags and
    evaluation; each keeps its own level values, verdict and divergence
    stop, and a stopped block records no further levels.  The blocks of a
    run are of one kind:

      - column sums (``phis`` None): each column's Riemann sum; the
        effective residual is the larger of probe spread and Cauchy residual;
      - variational (``phis``, one interval map per block): the level value,
        also the effective residual, is sum_j d_H(Phi(I_j), |I_j| Gamma(t_j)),
        the worst over the level's tag sets (a sup over partitions).  The
        nominal sum is exact; a probe sum is taken exactly only where
        _fsum_at_most cannot show it is at most the block's running worst,
        which it then leaves as it is.  A block whose value passes the
        run's bound freezes it, since later probes could only raise it, and
        the probes end once every live block has frozen.  This kind fixes
        left-first tags, rng salt 7702, and probes that in free mode fall
        back to the nominal free tags.

    A level's codes (cousin_build) are read in row blocks only.  A level's
    ``wall_ms`` is that of the whole shared level, recorded on every block
    that ran it.  Returns one run dict per block.
    """
    variational = phis is not None
    runs = [_new_run(m) for m in ms]
    live = list(range(len(ms)))
    for n, gauge in enumerate(schedule.levels, start=1):
        if not live:
            break
        t0 = time.perf_counter()
        P = cousin_build(gauge, tag_order="left" if variational else "mid")
        rng = np.random.default_rng([seed, 7702 if variational else 7701, n])
        # the primitive side of a variational sum depends only on the cells
        cells = {k: _primitive_side(phis[k], P, ms[k]) for k in live} if variational else None
        nominal, worst, spreads = {}, {}, {k: np.zeros(ms[k]) for k in live}  # worst: max |sum|

        def visit(i, sums):
            for k, s in sums.items():
                if not i:
                    nominal[k], worst[k] = s, abs(s)
                elif variational:
                    worst[k] = max(worst[k], s)
                else:
                    np.maximum(worst[k], np.abs(s), out=worst[k])
                    np.maximum(spreads[k], np.abs(s - nominal[k]), out=spreads[k])
            return [k for k in sums if not (variational and i and worst[k] > runs[k]["bound"])]

        makers = _probe_tag_sets(P, gauge, rng, mode, keep=variational)
        _level_sums(len(P), lambda rows: _WIDTHS.take(P.codes[rows] >> 8), makers, eval_blocks,
                    live, ms, visit, cells, worst)
        wall_ms = (time.perf_counter() - t0) * 1e3
        value = worst if variational else nominal
        for k in list(live):
            spread = worst[k] - nominal[k] if variational else spreads[k]
            if _record(runs[k], n, len(P), value[k], spread, worst[k], wall_ms):
                live.remove(k)
        del P, cells, makers  # this level's arrays go before the next build
    return runs


def _primitive_side(phi, P, m):
    """phi.query_batch(P.a, P.b) a row block at a time (a row is its own query),
    kept as one column broadcast to m while every block is broadcast (_folded)."""
    out = None
    for lo in range(0, len(P), _ROW_BLOCK):
        q = _folded(phi.query_batch(*P.block(slice(lo, lo + _ROW_BLOCK))[:2]))
        if out is None or q.shape[1] > out.shape[1]:  # the first block, or a wider one
            out = np.empty((len(P), q.shape[1])) if out is None else np.repeat(out, m, 1)
        out[lo:lo + _ROW_BLOCK] = q
    return np.broadcast_to(out, (len(P), m))


def _one_block(eval_fn):
    return _pooled(lambda ts, blocks: (eval_fn(ts),), eval_fn)


def _direction_labels(grid, m):
    if grid is not None and grid.d == 1:
        return ["-1", "+1"]
    return [f"u{k}" for k in range(m)]


def _assemble(method, entry, grid, tol, seed, schedule, run, flags=None, values=None):
    """The report of one run; every integrator's report is built here.

    ``schedule`` is the descriptor {"name", "levels"}.  With ``grid`` the
    values are the last level's sums, read as a set estimate; without it the
    run is scalar.  A run with no set estimate passes its own ``values``
    instead (vh: the per-level sums).
    """
    fired = run["fired_level"] is not None
    verdict = _verdict(run["effs"], tol, fired)
    own = values is None
    values = tuple(float(v) for v in (run["nominals"][-1] if own else values))
    estimate = SupportSet(grid, np.array(values)) if own and grid is not None else None
    m = 1 if grid is None else grid.m
    divergence = None
    if fired:
        labels = _direction_labels(grid, m)
        divergence = {
            "bound": run["bound"],
            "level": run["fired_level"],
            "directions": [labels[k] for k in np.flatnonzero(run["fired_dirs"])],
        }
    elif verdict == "diverged":
        divergence = {"rule": "monotone-growth", "window": 4}
    return IntegrationReport(
        report_id=f"{method}:{entry}:s{seed}:L{schedule['levels']}",
        method=method, entry=entry, d=0 if grid is None else grid.d, m=m, tol=tol,
        seed=seed, verdict=verdict, estimate=estimate, estimate_values=values,
        scalar=grid is None, levels=run["stats"], schedule=schedule,
        flags=dict(flags or {}), divergence=divergence,
    )


# -- public integrators ------------------------------------------------------

def henstock_integrate(mf, schedule, tol, seed=0):
    """Henstock integral estimate: Perron partitions from cousin_build."""
    [run] = _run_schedule(_one_block(mf.eval_support), (mf.grid.m,), schedule, seed,
                          "henstock")
    return _assemble("henstock", mf.name, mf.grid, tol, seed, schedule.describe(), run)


def mcshane_integrate(mf, schedule, tol, seed=0):
    """McShane integral estimate: free tags over cousin_build cells.

    The label follows the schedule's gauges: "mcshane-measurable" (flags.mode
    "measurable", the measurable-gauge variant) when every gauge is
    piecewise (schedule.measurable), "mcshane-plain" otherwise.  The sums
    are the same either way.
    """
    mode = "measurable" if schedule.measurable else "plain"
    [run] = _run_schedule(_one_block(mf.eval_support), (mf.grid.m,), schedule, seed,
                          "mcshane")
    return _assemble(f"mcshane-{mode}", mf.name, mf.grid, tol, seed, schedule.describe(),
                     run, flags={"mode": mode})


def scalar_hk(phi, schedule, tol, seed=0, name="phi"):
    """Scalar Henstock-Kurzweil integral of a vectorized real function."""
    eval_fn = lambda ts: np.asarray(phi(ts), dtype=np.float64)[:, None]
    [run] = _run_schedule(_one_block(eval_fn), (1,), schedule, seed, "henstock")
    return _assemble("scalar-hk", name, None, tol, seed, schedule.describe(), run)


def henstock_with_selection(mf, sel, schedule, tol, point_tol, seed=0):
    """Henstock run of Gamma and scalar HK runs of a selection's components.

    ``sel`` is a decomposition.Selection with (N, d) points at tags ts, d =
    mf.grid.d.  All d + 1 runs share one pass: each level builds one
    partition and one set of probe tags and evaluates Gamma once per tag
    set.  When sel is read off mf itself (sel.support_map(mf)), every
    component is read off that evaluation; otherwise the points are
    evaluated on the same tags, and Gamma is no longer evaluated once its
    own run has stopped.  Returns the Gamma report and the d component
    reports, equal to henstock_integrate(mf, schedule, tol, seed) and to
    scalar_hk of each component at point_tol, named ``sel.name[i]``.
    Level wall times are those of the shared levels.
    """
    def eval_blocks(ts, live):
        V = mf.eval_support(ts) if sel.support_map(mf) is not None or 0 in live else None
        X = np.asarray(sel.at(mf, ts, V), dtype=np.float64)
        return (V, *(X[:, i:i + 1] for i in range(d)))

    m, d = mf.grid.m, mf.grid.d
    _pooled(eval_blocks, mf.eval_support, sel.support_map(mf))
    runs = _run_schedule(eval_blocks, (m,) + (1,) * d, schedule, seed, "henstock")
    gamma = _assemble("henstock", mf.name, mf.grid, tol, seed, schedule.describe(), runs[0])
    comps = [_assemble("scalar-hk", f"{sel.name}[{i}]", None, point_tol, seed,
                       schedule.describe(), run)
             for i, run in enumerate(runs[1:])]
    return gamma, comps


def directional_profile(mf, schedule, tol, seed=0):
    """Per-direction scalar HK integrals assembled into a candidate set.

    The candidate is consistent (the desk Pettis test) when no direction
    diverges, every direction's effective residuals settle under tol, and
    canonicalizing the assembled vector moves no value by more than tol.
    Each direction's verdict follows the rule of a whole run (_verdict).
    """
    m = mf.grid.m
    [run] = _run_schedule(_one_block(mf.eval_support), (m,), schedule, seed, "henstock")
    report = _assemble("hkp", mf.name, mf.grid, tol, seed, schedule.describe(), run)
    labels = _direction_labels(mf.grid, m)
    cols = np.stack(run["eff_cols"])  # (levels, m)
    dir_verdicts = [_verdict([float(x) for x in cols[:, k]], tol, run["fired_dirs"][k])
                    for k in range(m)]
    divergent = [labels[k] for k, v in enumerate(dir_verdicts) if v == "diverged"]
    n_converged = dir_verdicts.count("converged")
    values = run["nominals"][-1]
    canon_change = None
    if divergent:
        report.verdict, report.estimate = "not-hkp", None
    else:
        canon_change = float(np.max(np.abs(canonical_values(mf.grid, values) - values)))
        settled = n_converged == m and canon_change <= tol
        report.verdict = "hkp-consistent" if settled else "inconclusive"
    report.per_direction = {
        "labels": labels,
        "values": [float(v) for v in values],
        "divergent": divergent,
        "n_converged": n_converged,
        "canon_change": canon_change,
    }
    return report


def birkhoff_integrate(mf, part_specs, tol, seed=0):
    """Birkhoff integral over a refining chain of measurable partitions.

    Each level sums Gamma(t_r) lambda(A_r) over the level's pieces for
    eight seeded tag draws plus one adversarial draw (per piece, the
    candidate tag maximizing ||Gamma||, hunted on a geometric ladder toward
    the piece infimum); the level value is the trial farthest from the
    previous level's estimate.  The sup over all tag choices is finitely
    unreachable, so reports carry flags.sup_approximate = True.  Finite
    unconditionality is exact: seeded permutations of the summation order
    (eight, or two when a level has more than 2^18 terms) must reproduce the
    estimate bit for bit.
    """
    parts = []
    for spec in part_specs:
        mp = measurable_partition(spec["n_pieces"], spec.get("interleave_depth", 0))
        if parts and not mp.refines(parts[-1]):
            raise ValueError("partition specs must refine level by level")
        parts.append(mp)

    run = _new_run(mf.grid.m)
    perm_ok = True
    for n, mp in enumerate(parts, start=1):
        t0 = time.perf_counter()
        lam = 1.0 / mp.n_pieces  # every piece has the same measure
        los, width = mp.left_edges(), mp.width  # (pieces, cells) left edges
        tag_sets = [los[:, 0] + width / 2.0]  # piece midpoints
        for k in range(_BIRKHOFF_TRIALS):
            tag_sets.append(_piece_random_tags(los, width,
                                               np.random.default_rng([seed, 40, n, k])))
        tag_sets.append(_piece_adversarial_tags(mf, los, width))
        sums = []
        for ts in tag_sets:  # the adversarial draw's terms stay for the check below
            terms = _folded(mf.eval_support(ts)) * lam
            sums.append(_widened(_fsum_columns(terms), mf.grid.m))
        nominal = sums[0]
        ref = run["nominals"][-1] if run["nominals"] else nominal  # the previous estimate
        dists = [float(np.max(np.abs(s - ref))) for s in sums]
        est = sums[int(np.argmax(dists))]
        spread = np.max([np.abs(s - nominal) for s in sums], axis=0)
        wall_ms = (time.perf_counter() - t0) * 1e3
        # unconditionality: exact because _fsum_columns rounds each exact column sum once
        n_perms = 8 if len(terms) * mf.grid.m <= (1 << 18) else 2
        for k in range(n_perms):
            perm = np.random.default_rng([seed, 41, n, k]).permutation(len(terms))
            if not np.array_equal(_widened(_fsum_columns(terms[perm]), mf.grid.m), sums[-1]):
                perm_ok = False
        worst = max(sums, key=lambda s: float(np.max(np.abs(s))))
        if _record(run, n, mp.n_pieces, est, spread, np.abs(worst), wall_ms, nominal):
            break

    return _assemble("birkhoff", mf.name, mf.grid, tol, seed,
                     {"name": f"birkhoff-parts(L{len(parts)})", "levels": len(parts)}, run,
                     flags={"sup_approximate": True, "permutation_bit_exact": perm_ok,
                            "trials": _BIRKHOFF_TRIALS})


def _piece_random_tags(los, width, rng):
    idx = rng.integers(0, los.shape[1], size=los.shape[0])
    lo = los[np.arange(los.shape[0]), idx]
    return rng.uniform(lo, lo + width)


def _piece_adversarial_tags(mf, los, width, floor=1e-8):
    """Per piece, the candidate tag with the largest ||Gamma|| on a ladder.

    Candidates: a geometric ladder into the piece's lowest cell (floored at
    1e-8 so singular entries stay finite) plus midpoints of the next cells.
    """
    lo0 = los[:, 0]
    cols = [lo0 + width * 4.0 ** (-i) for i in range(0, 9)]
    cols.append(np.maximum(lo0, floor))
    for k in range(1, min(4, los.shape[1])):
        cols.append(los[:, k] + width / 2.0)
    cands = np.column_stack(cols)
    cands[:, :10] = np.clip(cands[:, :10], np.maximum(lo0, floor)[:, None],
                            (lo0 + width)[:, None])
    vals = mf.eval_support(cands.ravel())
    norms = np.max(np.abs(_folded(vals)), axis=1).reshape(cands.shape)
    return cands[np.arange(cands.shape[0]), np.argmax(norms, axis=1)]


# -- variational machinery ---------------------------------------------------

def _vh_pass(eval_blocks, grid, names, phis, schedule, mode, tol, seed):
    """Variational runs of the blocks of ``eval_blocks``, one per primitive.

    All blocks share one pass (_run_schedule's variational kind); returns one
    report per block, named by ``names``, each bit-identical to its vh_check.
    """
    if mode not in ("perron", "free"):
        raise ValueError(f"unknown mode {mode!r}")
    runs = _run_schedule(eval_blocks, (grid.m,) * len(phis), schedule, seed,
                         "henstock" if mode == "perron" else "mcshane", phis=phis)
    return [_assemble("vh" if mode == "perron" else "vms", name, grid, tol, seed,
                      schedule.describe(), run, values=run["effs"],
                      flags={"mode": mode, "sums": [float(s) for s in run["effs"]]})
            for name, run in zip(names, runs)]


def vh_check(mf, phi, schedule, mode="perron", tol=5e-2, seed=0):
    """Variational Henstock (perron) / McShane (free) convergence check.

    Per level: a partition is built (left-tagged cousin cells for perron;
    the same cells with seeded free tags for free mode) and the variational
    sum against ``phi`` is evaluated, the worst over the level's re-tagging
    variants.  Converged when the sums settle below tol; diverged on the
    10^3 bound or four-level monotone growth.  The report's values are the
    per-level sums (there is no set estimate).
    """
    [report] = _vh_pass(_one_block(mf.eval_support), mf.grid, [mf.name], [phi], schedule,
                        mode, tol, seed)
    return report


def variational_measure_estimate(phi, E, schedule, seed=0):
    """Greedy Var(Phi, delta, E) estimates along the schedule.

    E is a finite union of intervals or a finite point set (dicts with
    "points" or "intervals", or a bare list of floats / (lo, hi) pairs).
    Per level, delta-fine Perron items tagged in E are packed greedily left
    to right with seeded extent jitter, 16 times; the best packing is kept.
    Restart r reads default_rng([seed, 55, n, r]) in the order of its own
    scalar walk, whether _pack_values accumulates its steps (a constant
    gauge of at least 1e-12, points included, as every uniform schedule
    has) or walks it one step at a time (any other gauge, a constant one
    below 1e-12 included), so each packing, and the level's estimate, is
    the one the restarts give run one after another.  Estimates are a
    lower surrogate for the sup in Var and the sequence's last value a
    surrogate for the limit; flagged approximate.  A level whose packings
    the loop guard cuts short, or where some lane's t stops advancing (a
    gauge below half an ulp of t), has no estimate: PackingTruncated is
    raised, before level 1 where check_packing can tell.
    """
    comps = normalize_set(E)
    check_packing(comps, schedule)
    estimates = []
    for n, gauge in enumerate(schedule.levels, start=1):
        rngs = [np.random.default_rng([seed, 55, n, r]) for r in range(_PACK_RESTARTS)]
        values, cut, stop = _pack_values(phi, comps, gauge, rngs)
        for short, why in ((stop, "stopped short: its gauge no longer moves t forward"),
                           (cut, f"took {_PACK_MAX_ITEMS} steps without reaching its end")):
            if short:
                lo, hi = comps[short[0]]
                raise PackingTruncated(
                    f"level {n}: a greedy packing of [{lo!r}, {hi!r}] {why}", level=n)
        estimates.append(max(0.0, *values))
    return {
        "set": [(float(lo), float(hi)) for lo, hi in comps],
        "estimates": estimates,
        "final": estimates[-1] if estimates else 0.0,
        "approximate": True,
        "restarts": _PACK_RESTARTS,
        "seed": seed,
    }


def check_packing(E, schedule):
    """Raise the PackingTruncated that the guard is certain to cause, before level 1.

    Only a constant gauge delta >= 2^-52 is decided here.  Every step then
    moves a packing's t forward (f delta, g delta >= 2^-53 exceed half an ulp
    of t < 1), by at most 0.98 delta + 0.9 delta, or max(delta, 1e-12) on an
    empty item; s = 2 max(delta, 1e-12) also covers rounding.  A lane enters
    [lo, hi] at t <= max(lo, H + s / 2), where H is the largest end of the
    components before it (its cursor passes no end by more than 0.98 delta),
    so if hi - t exceeds s _PACK_MAX_ITEMS, the guard cuts every lane.  Any
    other gauge passes (below 2^-52 t may stop, ending a lane's walk), and
    _pack_values reports a cut when it happens.
    """
    comps = normalize_set(E)
    for n, gauge in enumerate(schedule.levels, start=1):
        if gauge.const is None or not gauge.const >= 2.0 ** -52:
            continue
        step, reach = 2.0 * max(gauge.const, 1e-12), -np.inf
        for lo, hi in comps:
            if hi - max(lo, reach + step / 2.0) > step * _PACK_MAX_ITEMS:
                raise PackingTruncated(
                    f"level {n}: a greedy packing of [{lo!r}, {hi!r}] cannot reach its "
                    f"end in {_PACK_MAX_ITEMS} steps of gauge {gauge.const:g}", level=n)
            reach = max(reach, hi)


def normalize_set(E):
    """Sorted (lo, hi) components of a finite union of points and intervals.

    E is a dict with "points" and/or "intervals", a bare (lo, hi) tuple, or
    a list of points and (lo, hi) pairs; a point t is the component (t, t).
    A NaN endpoint raises ValueError.  Components are clipped to [0, 1]
    first, and those left empty (hi < lo: reversed, or wholly outside
    [0, 1]) are dropped.  Components that overlap or touch are then merged,
    so the result is disjoint and each spelling of a set gives the same one.
    """
    if isinstance(E, dict):
        items = [*E.get("points", ()), *E.get("intervals", ())]
    else:
        items = list(E)
        # a bare (lo, hi) tuple is one interval; a list of scalars is points
        if isinstance(E, tuple) and len(items) == 2 and all(np.isscalar(x) for x in items):
            items = [tuple(items)]
    comps = []
    for item in items:
        lo, hi = (item, item) if np.isscalar(item) else item
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):  # max and min would clip NaN to 0 and 1
            raise ValueError(f"set component {item!r} has a NaN endpoint")
        lo, hi = max(0.0, lo), min(1.0, hi)
        if hi >= lo:
            comps.append((lo, hi))
    merged = []
    for lo, hi in sorted(comps):
        if merged and lo <= merged[-1][1]:
            lo, hi = merged[-1][0], max(merged.pop()[1], hi)
        merged.append((lo, hi))
    return merged


class _Draws:
    """Uniform draws of several packings, each from its own rng, read ahead.

    Row r of the buffer holds packing r's next unread draws from column
    pos[r] on.  lo + (hi - lo) * u with u from rng.random is rng.uniform(lo,
    hi) bit for bit, and each rng serves one packing, so reading ahead
    changes no value a packing reads.
    """

    def __init__(self, rngs):
        self._rngs = rngs
        self._buf = np.stack([rng.random(_PACK_DRAW_BLOCK) for rng in rngs])
        self._pos = np.zeros(len(rngs), dtype=np.intp)

    def ahead(self, lanes, n):
        """The next n draws of each packing in ``lanes``, one row each, left unread."""
        self._read_on(lanes, n)
        return self._buf[lanes[:, None], self._pos[lanes][:, None] + np.arange(n)]

    def take(self, lanes, counts):
        """Mark the next ``counts`` draws of each packing in ``lanes`` read."""
        self._pos[lanes] += counts

    def _read_on(self, lanes, n):
        """Make each row in ``lanes`` hold at least n unread draws."""
        width = self._buf.shape[1]
        if n > width:  # widen every row with its own rng's next draws
            more = max(n, 2 * width) - width
            self._buf = np.hstack([self._buf, np.stack([g.random(more) for g in self._rngs])])
            width += more
        for r in lanes[self._pos[lanes] + n > width]:  # unread draws to the front, then read on
            p = self._pos[r]
            row = self._buf[r]
            row[:width - p] = row[p:]
            row[width - p:] = self._rngs[r].random(p)
            self._pos[r] = 0


def _pack_values(phi, comps, gauge, rngs):
    """Values of the greedy packings of comps, one per rng ("lane").

    A lane walks the components left to right with a cursor from 0.  It
    enters [lo, hi] at t = max(lo, cursor), or skips it when t > hi.  Each
    step draws f ~ U(0.8, 0.98) and proposes the item [max(cursor,
    t - f dt), min(1, t + f dt)] with dt = gauge(t).  An empty item moves t
    on by max(dt, 1e-12); a kept one moves the cursor to its right end and
    t to cursor + gauge(cursor) * U(0.5, 0.9), both capped at hi.  The lane
    leaves the component when t reaches hi or an item reaches hi; it stops
    short where t does not advance, or after _PACK_MAX_ITEMS steps; so a point (lo == hi) is one
    step at tag hi.  Under a constant gauge of at least 1e-12, points
    included, each lane's steps through a component are partial sums
    (_const_walk).  Any other gauge, a constant one below 1e-12 included,
    is walked one lane and one step at a time by this rule (_lane_walk).
    Both give each lane the items of its scalar walk, bit for bit.  A
    lane's value is the sum of d_H(Phi(I), 0) over its items.  Returns the
    values and the sorted indices of the components that the guard cut some
    lane in before their end, and of those where some lane's t stopped.
    """
    if gauge.const is not None and gauge.const >= 1e-12:  # where t always advances
        (lanes, cut), stop = _const_walk(comps, gauge.const, rngs), []
    else:
        lanes, cuts, stops = zip(*(_lane_walk(comps, gauge, rng) for rng in rngs))
        cut, stop = sorted(set().union(*cuts)), sorted(set().union(*stops))
    values = [_fsum(_row_max(np.abs(_folded(phi.query_batch(a, b))))) if len(a) else 0.0
              for a, b in lanes]
    return values, cut, stop


def _const_walk(comps, delta, rngs):
    """Each lane's items (a, b) under a constant gauge delta >= 1e-12, and the cut components.

    Every step then keeps its item and moves t forward, since f delta and
    g delta exceed an ulp of any t <= 1; the one exception, a lane whose
    cursor is already at 1, gets an empty item and adds none after it.  So,
    with d_0 = t_0 and d_1, d_2, ... = f_0 delta, g_0 delta, f_1 delta, ...,
    a lane's tags and right ends in a component are the partial sums
    s = t_0, R_0, t_1, R_1, ... of d, which np.add.accumulate takes along
    each lane's row with the walk's own additions in its order.  The first
    s_j >= hi ends the component: an odd j is the last right end (clipped
    at 1); an even j is the last tag, clipped to hi, whose item takes one
    more draw.  A point component (lo == hi) is no exception: its s_0 = hi
    ends it after one step.  The lanes in a component accumulate up to
    _PACK_WALK_STEPS steps at a time, and a lane that does not end in them
    goes on from s_n; one still in the component after _PACK_MAX_ITEMS
    steps is cut, as the guard cuts it.
    """
    draws, n_lanes = _Draws(rngs), len(rngs)
    cursor = np.zeros(n_lanes)
    items, cut = [], set()
    for i, (lo, hi) in enumerate(comps):
        lane = np.flatnonzero(cursor <= hi)
        t = np.maximum(lo, cursor[lane])
        steps = 0
        while len(lane):
            # a step and its gap advance t by about 1.3 delta or more
            half = int(min(_PACK_WALK_STEPS, _PACK_MAX_ITEMS - steps,
                           (hi - t.min()) / (1.3 * delta) + 2))
            n = 2 * half
            u = draws.ahead(lane, n)
            d = np.empty((len(lane), n + 1))
            d[:, 0] = t
            d[:, 1::2] = (0.8 + (0.98 - 0.8) * u[:, 0::2]) * delta
            d[:, 2::2] = (0.5 + (0.9 - 0.5) * u[:, 1::2]) * delta
            s = np.add.accumulate(d, axis=1)
            end = s[:, :n] >= hi
            done = end.any(axis=1)
            k = np.where(done, end.argmax(axis=1) // 2 + 1, half)  # steps taken
            draws.take(lane, 2 * k - done)  # the leaving step draws no gap
            m = int(k.max())
            tags = np.minimum(s[:, 0:2 * m:2], hi)
            fdt = d[:, 1:2 * m:2]
            R = np.minimum(1.0, tags + fdt)
            L = np.maximum(np.column_stack((cursor[lane], R[:, :-1])), tags - fdt)
            kept = (R > L) & (np.arange(m) < k[:, None])
            items.append((np.broadcast_to(lane[:, None], kept.shape)[kept], L[kept], R[kept]))
            last = np.arange(len(lane)), k - 1
            cursor[lane] = np.where(kept[last], R[last], cursor[lane])
            steps += half
            if steps == _PACK_MAX_ITEMS and not done.all():
                cut.add(i)
                done[:] = True
            lane, t = lane[~done], s[~done, n]
    return _by_lane(items, n_lanes), sorted(cut)


def _by_lane(items, n_lanes):
    """Each lane's items (a, b), in the order added, from blocks of (lanes, a, b)."""
    if not items:
        return [(np.empty(0), np.empty(0))] * n_lanes
    owner, a, b = map(np.concatenate, zip(*items))
    order = np.argsort(owner, kind="stable")
    sel = np.split(order, np.cumsum(np.bincount(owner, minlength=n_lanes))[:-1])
    return [(a[s], b[s]) for s in sel]


def _lane_walk(comps, gauge, rng):
    """One lane's items (a, b) under any gauge, the components the guard cut, and
    those where the lane stopped short: a kept item's next t did not advance.

    The lane takes _pack_values' steps one at a time, with its draws from
    its own rng; dt is a constant gauge's value, or any other gauge called
    at the step's point.
    """
    at = (lambda t: gauge.const) if gauge.const is not None else (lambda t: float(gauge(t)))
    a, b, cut, stop = [], [], [], []
    cursor = 0.0
    for i, (lo, hi) in enumerate(comps):
        t = max(lo, cursor)
        if t > hi:
            continue
        for _ in range(_PACK_MAX_ITEMS):
            dt = at(t)
            fdt = rng.uniform(0.8, 0.98) * dt
            L, R = max(cursor, t - fdt), min(1.0, t + fdt)
            if R > L:  # a kept item: t moves on from its right end
                a.append(L)
                b.append(R)
                cursor = R
                if R >= hi:
                    break
                t_next = min(hi, cursor + at(cursor) * rng.uniform(0.5, 0.9))
                if t_next <= t:
                    stop.append(i)
                    break
            else:  # an empty item: t moves on by dt, at least 1e-12
                t_next = min(hi, t + max(dt, 1e-12))
                if t_next >= hi:
                    break
            t = t_next
        else:  # still inside the component after the guard's last step
            cut.append(i)
    return (np.array(a), np.array(b)), cut, stop


def _built_primitives(eval_blocks, grid, gauge, blocks):
    """{block: Primitive} on one cousin partition of [0, 1], evaluated in row blocks.

    Cell values are |I| Gamma(t) at the build tags, so variational sums
    against these primitives measure the integrator's self-consistency.
    The terms are made read-only, so each Primitive keeps P.a, P.widths
    (computed once) and its terms without a copy.
    """
    P = cousin_build(gauge, tag_order="mid")
    terms = {k: np.empty((len(P), grid.m)) for k in blocks}
    for lo in range(0, len(P), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        vals = eval_blocks(P.t[rows], blocks)
        for k in blocks:
            np.multiply(vals[k], P.widths[rows, None], out=terms[k][rows])
    for V in terms.values():
        V.flags.writeable = False
    return {k: Primitive(grid, P.a, P.widths, terms.pop(k)) for k in blocks}


def build_primitive(mf, gauge):
    """Primitive of mf on the dyadic cells of one cousin partition of [0, 1]."""
    return _built_primitives(_one_block(mf.eval_support), mf.grid, gauge, [0])[0]
