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

Nominal sums, Birkhoff sums and variational gap sums are exactly rounded
(_fsum_columns: math.fsum's value bit for bit, by error-free extraction
over whole arrays), hence permutation invariant - constants integrate to
themselves bit-exactly and Birkhoff sums are order-independent by
construction; probe sums use a deterministic pairwise tree reduction.

Two level loops exist.  _run_schedule runs every method over Cousin
partitions: Henstock, McShane, scalar, directional and variational.  It
carries several blocks at once, each with its own level values, verdict
and stop; the sums are per block, so a block's result is bit-identical to
running it alone, and a set and its selection's components
(henstock_with_selection) or t55's Gamma, {f} and G (_vh_pass) share each
level's partition, probe tags and set evaluation.  Its blocks are of one of
two kinds.  Column-sum blocks take Riemann sums per column.  Variational
blocks take the summed primitive-vs-term gaps, worst over the level's tag
sets, on left-first tags, with rng salt 7702, and in free mode their probes
fall back to the nominal free tags rather than the build tags.  On a
nested schedule (GaugeSchedule.nested) each level's Cousin build starts
from the previous level's cells.  Each probe tag set is made, evaluated,
weighted and reduced in row blocks of _ROW_BLOCK rows (_streamed_sums),
with the bits of the whole-array computation; only the exact nominal
column sums take the whole level at once.  A Perron probe tag lies in its
cell [a, b], so where b - a is below the gauge's cell bound
(Gauge.lower(a)) the fineness check w < delta(t) holds without a gauge
call; only the other rows are checked.  The bound settles no free-mode
window check, and a gauge built without one settles nothing.
birkhoff_integrate keeps its own loop over measurable partitions.  Both
loops share the level bookkeeping (_record), and _assemble builds every
report, so the verdict, divergence record and report id follow one rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .convex_sets import Primitive, SupportSet, canonical_values
from .partitions import (
    Gauge,
    TaggedPartition,
    _window_fine,
    cousin_build,
    measurable_partition,
)

DIVERGENCE_BOUND = 1e3
DEFAULT_LEVELS = 12
DEFAULT_TOL_D1 = 1e-4
DEFAULT_TOL_D2 = 1e-3
_GROWTH_EPS = 1e-9
_BIRKHOFF_TRIALS = 8  # seeded tag draws per Birkhoff level
_PACK_RESTARTS = 16  # greedy packings per variational-measure level
_PACK_MAX_ITEMS = 200_000  # loop guard of one greedy packing component
_PACK_DRAW_BLOCK = 512  # uniform doubles a packing draws ahead at a time
_PACK_STEP_CHUNK = 1024  # packing steps whose kept items are joined into one array
_ROW_BLOCK = 1 << 15  # rows of a probe tag set made, evaluated and reduced at a time
CSV_HEADER = "level,residual,max_dir_residual,wall_ms"


# -- gauge schedules ---------------------------------------------------------

@dataclass(frozen=True)
class GaugeSchedule:
    """Pointwise nonincreasing sequence of gauges delta_1 >= delta_2 >= ...

    The check below compares 1001 sampled points exactly.  The constructors
    whose gauges are nonincreasing in floating point at every t by
    construction (uniform, measurable-uniform, origin) mark their schedules
    ``nested``, and only those warm-start each level's Cousin build from
    the previous level's cells.
    """

    levels: tuple
    name: str = "custom"
    _nested: bool = field(default=False, repr=False)

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
    def nested(self):
        """True when delta_{n+1}(t) <= delta_n(t) holds at every t, not only at the samples."""
        return self._nested

    @property
    def measurable(self):
        """True when every gauge is piecewise constant, hence measurable."""
        return all(g.kind == "piecewise" for g in self.levels)

    def describe(self):
        return {"name": self.name, "levels": len(self.levels)}


def uniform_schedule(base=0.25, levels=DEFAULT_LEVELS):
    """Constant gauges base/2^n, n = 1..levels."""
    gs = tuple(Gauge.constant(base / 2.0 ** n) for n in range(1, levels + 1))
    return GaugeSchedule(gs, name=f"uniform({base:g},L{levels})", _nested=True)


def measurable_uniform_schedule(base=0.25, levels=DEFAULT_LEVELS):
    """Same widths as uniform_schedule but as one-piece measurable gauges."""
    gs = tuple(
        Gauge.step(np.array([0.0, 1.0]), np.array([base / 2.0 ** n]), name="measurable-const")
        for n in range(1, levels + 1)
    )
    return GaugeSchedule(gs, name=f"measurable-uniform({base:g},L{levels})", _nested=True)


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
    # GaugeSchedule's exact check reads hn at t = 0 and cn at t = 1, so a
    # schedule that passes it has nonincreasing coefficients; (cn * t) * t is
    # monotone in cn, so its gauges are nonincreasing at every t
    return GaugeSchedule(gs, name=f"{name}(L{levels})", _nested=True)


# -- exact summation helpers -------------------------------------------------

_SUM_BLOCK = 1 << 16  # elements per extraction block, so its passes stay in cache
_SUM_LIMIT_EXP = 1000  # columns reaching 2^(1000 - k), inf or nan keep math.fsum
_NARROW_ROW = 8  # rows of fewer float64s than a 64-byte cache line are reduced column-major
_PAIRWISE_MAX_WIDTH = 32  # widest rows whose max is taken by pairwise column halves


def _fsum_columns(terms):
    """math.fsum of each column of an (N, m) array, bit for bit.

    Error-free extraction (Rump, Ogita and Oishi 2008).  In a block of at
    most n rows with |x| < 2^e and 2^k >= 2n, q = (x + s) - s with
    s = 2^(e+k) is a multiple of 2^(e+k-53) with |q| <= 2^e, so every
    partial sum of q is exact and the block's column sums of q may be taken
    in any order (here one matrix-vector product).  x - q is exact too and
    below 2^(e+k-53), so repeating on it until nothing is left splits each
    column into a few exact pass totals, and math.fsum of those is the
    correctly rounded column sum: math.fsum's value, independent of the row
    order.  A column holding inf, nan or |x| >= 2^(1000-k) is summed by
    math.fsum itself, so it gives the same value or raises the same error.
    """
    x = np.ascontiguousarray(terms, dtype=np.float64)
    n, m = x.shape
    out = np.zeros(m)
    if n == 0 or m == 0:
        return out
    rows = min(n, max(1, _SUM_BLOCK // m))
    k = (2 * rows - 1).bit_length()
    limit = math.ldexp(1.0, _SUM_LIMIT_EXP - k)
    ok = slice(None)
    if not (x.max() < limit and -x.min() < limit):  # nan compares False
        ok = np.abs(x).max(axis=0) < limit
        for j in np.flatnonzero(~ok):
            out[j] = math.fsum(x[:, j].tolist())
        if not ok.any():
            return out
        x = x[:, ok]
    ones = np.ones(rows)
    q_buf, r_buf = np.empty((rows, x.shape[1])), np.empty((rows, x.shape[1]))
    totals = []
    for lo in range(0, n, rows):
        src = x[lo:lo + rows]
        b = len(src)
        q, r = q_buf[:b], r_buf[:b]
        big = max(src.max(), -src.min())
        while big:
            s = math.ldexp(1.0, math.frexp(big)[1] + k)
            np.add(src, s, out=q)
            q -= s
            totals.append(ones[:b] @ q)
            src = np.subtract(src, q, out=r)
            big = max(r.max(), -r.min())
    if totals:
        out[ok] = [math.fsum(col) for col in np.array(totals).T.tolist()]
    return out


def _fsum(values):
    """math.fsum of a 1-D array, bit for bit (see _fsum_columns)."""
    return float(_fsum_columns(np.reshape(values, (-1, 1)))[0])


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

def _uniform(rng, lo, hi):
    """rng.uniform(lo, hi) bit for bit: numpy computes it as lo + (hi - lo) * u."""
    return lo + (hi - lo) * rng.random(len(lo))


def _free_tags(a, b, t, gauge, rng):
    """Seeded free tags of cells [a, b], each validity-checked for fineness.

    A candidate that is not fine falls back to the cell's tag in ``t``.
    """
    mid = (a + b) / 2.0
    radius = np.atleast_1d(gauge(mid))
    lo = np.maximum(0.0, mid - radius)
    hi = np.minimum(1.0, mid + radius)
    tau = _uniform(rng, lo, hi)
    return np.where(_window_fine(a, b, tau, gauge), tau, t)


def _probe_tag_sets(P, gauge, rng, mode):
    """Re-tagging variants for the tag-robustness probe and divergence hunt.

    Every variant keeps the cells and replaces tags cellwise, falling back
    to the build tag where a candidate violates fineness, so each variant is
    itself a valid delta-fine partition of the right kind.  A variant is
    yielded as a block-maker: ``make(rows)`` gives its tags on the cells of
    the slice ``rows``.  The makers share ``rng``, so each must be called on
    the row blocks in order before the next one is taken; the seeded draws
    then come in the order whole-array draws would.

    Every henstock candidate lies in its cell [a, b], so a row with
    w < gauge.lower(a) keeps it with no gauge call; only the other (open)
    rows are checked.  The free-mode window rule checks every row.
    """
    a, b, w, t0 = P.a, P.b, P.widths, P.t
    henstock = mode == "henstock"
    open_rows = np.flatnonzero(~(w < gauge.lower(a))) if henstock else None

    def fine_or_build_tag(candidates):
        def make(rows):
            u = candidates(rows)
            if not henstock:
                return np.where(_window_fine(a[rows], b[rows], u, gauge), u, t0[rows])
            lo, hi, _ = rows.indices(len(a))
            i = open_rows[np.searchsorted(open_rows, lo):np.searchsorted(open_rows, hi)]
            if len(i):
                bad = i[~(w[i] < np.atleast_1d(gauge(u[i - lo])))]
                u[bad - lo] = t0[bad]
            return u
        return make

    for _ in range(8):  # seeded in-cell / in-window re-tags
        if henstock:
            yield fine_or_build_tag(lambda rows: _uniform(rng, a[rows], b[rows]))
        else:  # _free_tags applies the window rule and falls back to t0
            yield lambda rows: _free_tags(a[rows], b[rows], t0[rows], gauge, rng)

    # deterministic near-edge ladder; geometric approach to the left edge
    for i in (1, 2, 3, 4, 6, 8):
        yield fine_or_build_tag(lambda rows, s=4.0 ** (-i): a[rows] + w[rows] * s)
    for i in (1, 2, 4, 8):
        yield fine_or_build_tag(lambda rows, s=4.0 ** (-i): b[rows] - w[rows] * s)
    if not henstock:
        for i in (2, 4, 6, 8):  # free tags may leave the cell toward 0
            yield fine_or_build_tag(lambda rows, s=4.0 ** (-i): a[rows] * s)


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


def _gaps(cells, v, w, out):
    """Each row's max_j |cells[:, j] - v[:, j] * w|, written to ``out``.

    Rows narrower than _NARROW_ROW are taken column by column, with a
    running max; max is exact, so the bits are those of _row_max.
    """
    if v.shape[1] >= _NARROW_ROW:
        terms = v * w[:, None]
        d = np.subtract(cells, terms, out=terms)
        out[:] = _row_max(np.abs(d, out=d))
        return
    d = np.empty(len(w))
    for j in range(v.shape[1]):
        dst = d if j else out
        np.multiply(v[:, j], w, out=dst)
        np.subtract(cells[:, j], dst, out=dst)
        np.abs(dst, out=dst)
        if j:
            np.maximum(out, d, out=out)


def _streamed_sums(make, w, eval_blocks, blocks, cells=None):
    """The sums of one tag set, made _ROW_BLOCK rows at a time.

    Each row block's tags are made, evaluated, weighted by the widths ``w``
    (N, 1) and reduced before the next block is made, so no temporary spans
    the level.  Column sums (``cells`` None) are _tree_sum_columns of
    the whole (N, m) term array, bit for bit: _tree_sum_columns pairs rows
    2i and 2i + 1 and carries an odd last row, so after k steps row j holds
    the tree sum of rows [j 2^k, (j + 1) 2^k) of the input, clipped at N.
    A full block starts at an even row of every step before the k-th, so
    its rows pair up as in the block alone; the short last block ends the
    array, so it pairs from its even start and carries its odd last row as
    it would alone, and once reduced to one row it is carried unchanged.
    After k = log2(_ROW_BLOCK) steps the array is therefore the block
    partials, and the remaining steps are _tree_sum_columns of those.
    Variational sums (``cells`` {block: (N, m) primitive values}) write each
    row block's max gap into one length-N vector and _fsum it at the end.
    """
    n = len(w)
    parts = {k: [] if cells is None else np.empty(n) for k in blocks}
    for lo in range(0, n, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        vals = eval_blocks(make(rows), blocks)
        for k in blocks:
            if cells is None:
                parts[k].append(_tree_sum_columns(_weighted(vals[k], w[rows, 0])))
            else:
                _gaps(cells[k][rows], vals[k], w[rows, 0], out=parts[k][rows])
        del vals
    if cells is None:
        return {k: _tree_sum_columns(np.array(p)) for k, p in parts.items()}
    return {k: _fsum(p) for k, p in parts.items()}


def _new_run(m):
    """Empty level record of one run over m columns; _assemble reads it."""
    return {"stats": [], "effs": [], "nominals": [], "eff_cols": [],
            "fired_dirs": np.zeros(m, dtype=bool), "fired_level": None}


def _record(run, stat, value, fired):
    """Append one level (its stat and value); returns ``fired``, which ends the run."""
    run["stats"].append(stat)
    run["effs"].append(stat.eff_residual)
    run["nominals"].append(value)
    if fired:
        run["fired_level"] = stat.level
    return fired


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
        the worst over the level's tag sets (a sup over partitions).  A
        block whose value passes DIVERGENCE_BOUND freezes it, since later
        probes could only raise it, and the probes end once every live
        block has frozen.  This kind fixes left-first tags, rng salt 7702,
        and probes that in free mode fall back to the nominal free tags.

    Sums are per block, so a block's run is bit-identical to a one-block
    run.  A level's ``wall_ms`` is that of the whole shared level, recorded
    on every block that ran it.  On a nested schedule a level's partition is
    bisected on from the previous level's (cousin_build's ``start``), which
    gives the partition a build from [0, 1] gives.  Returns one run dict
    per block.
    """
    variational = phis is not None
    runs = [_new_run(m) for m in ms]
    live = list(range(len(ms)))
    built = None
    for n, gauge in enumerate(schedule.levels, start=1):
        if not live:
            break
        t0 = time.perf_counter()
        built = cousin_build(gauge, tag_order="left" if variational else "mid",
                             start=built if schedule.nested else None)
        P = built
        rng = np.random.default_rng([seed, 7702 if variational else 7701, n])
        tags = P.t if mode == "henstock" else _free_tags(P.a, P.b, P.t, gauge, rng)
        if variational and mode != "henstock":
            P = TaggedPartition(P.a, P.b, tags)
        w = P.widths[:, None]
        # the primitive side of a variational sum depends only on the cells
        cells = {k: phis[k].query_batch(P.a, P.b) for k in live} if variational else None

        if variational:
            nominal = _streamed_sums(lambda rows: tags[rows], w, eval_blocks, live, cells)
        else:  # exact, over the whole array
            vals = eval_blocks(tags, live)
            nominal = {k: _fsum_columns(vals[k] * w) for k in live}
            del vals
        worst = {k: abs(v) for k, v in nominal.items()}  # largest |sum| over the tag sets
        spread_cols = {} if variational else {k: np.zeros(ms[k]) for k in live}
        active = list(live)
        for make in _probe_tag_sets(P, gauge, rng, mode):
            for k, s in _streamed_sums(make, w, eval_blocks, active, cells).items():
                if variational:
                    worst[k] = max(worst[k], s)
                else:
                    np.maximum(worst[k], np.abs(s), out=worst[k])
                    np.maximum(spread_cols[k], np.abs(s - nominal[k]), out=spread_cols[k])
            if variational:
                active = [k for k in active if not worst[k] > DIVERGENCE_BOUND]
                if not active:
                    break
        wall_ms = (time.perf_counter() - t0) * 1e3
        for k in list(live):
            run = runs[k]
            if variational:
                s = value = worst[k]
                stat = LevelStat(level=n, n_items=len(P), residual=None,
                                 probe_spread=s - nominal[k], eff_residual=s, sum_norm=s,
                                 wall_ms=wall_ms)
                fired = s > DIVERGENCE_BOUND
            else:
                spread, value = spread_cols[k], nominal[k]
                resid_cols = np.abs(value - run["nominals"][-1]) if run["nominals"] else None
                eff_cols = spread if resid_cols is None else np.maximum(spread, resid_cols)
                stat = LevelStat(
                    level=n, n_items=len(P),
                    residual=None if resid_cols is None else float(resid_cols.max()),
                    probe_spread=float(spread.max()),
                    eff_residual=float(eff_cols.max()),
                    sum_norm=float(np.abs(value).max()),
                    wall_ms=wall_ms,
                )
                run["eff_cols"].append(eff_cols)
                run["fired_dirs"] |= worst[k] > DIVERGENCE_BOUND
                fired = run["fired_dirs"].any()
            if _record(run, stat, value, fired):
                live.remove(k)
    return runs


def _one_block(eval_fn):
    return lambda ts, blocks: (eval_fn(ts),)


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
            "bound": DIVERGENCE_BOUND,
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


def henstock_with_selection(mf, points, schedule, tol, point_tol, seed=0, name="f",
                            from_support=None):
    """Henstock run of Gamma and scalar HK runs of a selection's components.

    ``points(ts)`` gives the (N, d) selection points at tags ts, d =
    mf.grid.d.  All d + 1 runs share one pass: each level builds one
    partition and one set of probe tags and evaluates Gamma once per tag
    set.  With ``from_support`` (Gamma's support rows (N, m) -> the same
    points) every component is read off that evaluation; without it the
    points are evaluated on the same tags, and Gamma is no longer evaluated
    once its own run has stopped.  Returns the Gamma report and the d
    component reports, equal to henstock_integrate(mf, schedule, tol, seed)
    and to scalar_hk of each component at point_tol, named ``name[i]``.
    Level wall times are those of the shared levels.
    """
    def eval_blocks(ts, live):
        V = mf.eval_support(ts) if from_support is not None or 0 in live else None
        X = points(ts) if from_support is None else from_support(V)
        X = np.asarray(X, dtype=np.float64)
        return (V, *(X[:, i:i + 1] for i in range(d)))

    m, d = mf.grid.m, mf.grid.d
    runs = _run_schedule(eval_blocks, (m,) + (1,) * d, schedule, seed, "henstock")
    gamma = _assemble("henstock", mf.name, mf.grid, tol, seed, schedule.describe(), runs[0])
    comps = [_assemble("scalar-hk", f"{name}[{i}]", None, point_tol, seed,
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
    prev = None
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
            terms = mf.eval_support(ts) * lam
            sums.append(_fsum_columns(terms))
        nominal = sums[0]
        ref = prev if prev is not None else nominal
        dists = [float(np.max(np.abs(s - ref))) for s in sums]
        est = sums[int(np.argmax(dists))]
        spread = max(float(np.max(np.abs(s - nominal))) for s in sums)
        residual = None if prev is None else float(np.max(np.abs(est - prev)))
        stat = LevelStat(
            level=n, n_items=mp.n_pieces, residual=residual, probe_spread=spread,
            eff_residual=spread if residual is None else max(residual, spread),
            sum_norm=float(np.max(np.abs(nominal))),
            wall_ms=(time.perf_counter() - t0) * 1e3)
        # unconditionality: exact because _fsum_columns rounds each exact column sum once
        n_perms = 8 if terms.size <= (1 << 18) else 2
        for k in range(n_perms):
            perm = np.random.default_rng([seed, 41, n, k]).permutation(len(terms))
            if not np.array_equal(_fsum_columns(terms[perm]), sums[-1]):
                perm_ok = False
        worst = max(sums, key=lambda s: float(np.max(np.abs(s))))
        run["fired_dirs"] |= np.abs(worst) > DIVERGENCE_BOUND
        if _record(run, stat, est, run["fired_dirs"].any()):
            break
        prev = est

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
    norms = np.max(np.abs(vals), axis=1).reshape(cands.shape)
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
    The 16 restarts run in lockstep (_pack_values), and restart r reads
    default_rng([seed, 55, n, r]) in the order of its own scalar walk, so
    each packing, and the level's estimate, is the one the restarts give
    run one after another.  Estimates are a lower surrogate for the sup in
    Var and the sequence's last value a surrogate for the limit; flagged
    approximate.
    """
    comps = normalize_set(E)
    estimates = []
    for n, gauge in enumerate(schedule.levels, start=1):
        rngs = [np.random.default_rng([seed, 55, n, r]) for r in range(_PACK_RESTARTS)]
        estimates.append(max(0.0, *_pack_values(phi, comps, gauge, rngs)))
    return {
        "set": [(float(lo), float(hi)) for lo, hi in comps],
        "estimates": estimates,
        "final": estimates[-1] if estimates else 0.0,
        "approximate": True,
        "restarts": _PACK_RESTARTS,
        "seed": seed,
    }


def normalize_set(E):
    """Sorted (lo, hi) components of a finite union of points and intervals.

    E is a dict with "points" and/or "intervals", a bare (lo, hi) tuple, or
    a list of points and (lo, hi) pairs; a point t is the component (t, t).
    Components are clipped to [0, 1] first, and those left empty (hi < lo:
    reversed, or wholly outside [0, 1]) are dropped.
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
        lo, hi = max(0.0, float(lo)), min(1.0, float(hi))
        if hi >= lo:
            comps.append((lo, hi))
    return sorted(comps)


class _Draws:
    """Uniform draws of several packings, each from its own rng, read ahead.

    lo + (hi - lo) * u with u from rng.random is rng.uniform(lo, hi) bit for
    bit, and each rng serves one packing, so drawing a block ahead changes
    no value a packing reads.
    """

    def __init__(self, rngs):
        self._rngs = rngs
        self._buf = np.stack([rng.random(_PACK_DRAW_BLOCK) for rng in rngs])
        self._pos = np.zeros(len(rngs), dtype=np.intp)

    def uniform(self, lanes, lo, hi):
        """The next draw of each packing in ``lanes``, mapped to [lo, hi)."""
        pos = self._pos[lanes]
        u = self._buf[lanes, pos]
        pos += 1
        self._pos[lanes] = pos
        for r in lanes[pos == _PACK_DRAW_BLOCK]:
            self._buf[r] = self._rngs[r].random(_PACK_DRAW_BLOCK)
            self._pos[r] = 0
        return lo + (hi - lo) * u


def _pack_values(phi, comps, gauge, rngs):
    """Values of the greedy packings of comps, one per rng ("lane").

    A lane walks the components left to right with a cursor from 0.  It
    enters [lo, hi] at t = max(lo, cursor), or skips it when t > hi.  Each
    step draws f ~ U(0.8, 0.98) and proposes the item [max(cursor,
    t - f dt), min(1, t + f dt)] with dt = gauge(t).  An empty item moves t
    on by max(dt, 1e-12); a kept one moves the cursor to its right end and
    t to cursor + gauge(cursor) * U(0.5, 0.9), both capped at hi.  The lane
    leaves the component when t reaches hi, an item reaches hi, t does not
    advance, or after _PACK_MAX_ITEMS steps.  All live lanes take each step
    together: one gauge call on their tags and one on their new cursors.
    A lane's value is the sum of d_H(Phi(I), 0) over its items.
    """
    n_lanes = len(rngs)
    # a sentinel component past the last one: no cursor skips it, and a
    # lane that enters it is finished
    los = np.array([lo for lo, _ in comps] + [0.0])
    his = np.array([hi for _, hi in comps] + [np.inf])
    draws = _Draws(rngs)
    lane = np.arange(n_lanes)
    comp = np.full(n_lanes, -1)
    cursor, t, hi = np.zeros(n_lanes), np.zeros(n_lanes), np.zeros(n_lanes)
    guard = np.zeros(n_lanes, dtype=np.intp)
    leave = np.ones(n_lanes, dtype=bool)
    chunks, items = [], []  # (lanes, L, R) of each step's kept items
    while True:
        idx = leave.nonzero()[0]
        if len(idx):
            c = comp[idx] + 1
            while True:
                skip = cursor[idx] > his[c]
                if not np.count_nonzero(skip):
                    break
                c += skip
            comp[idx], hi[idx], guard[idx] = c, his[c], 0
            t[idx] = np.maximum(los[c], cursor[idx])
            live = comp < len(comps)
            if np.count_nonzero(live) < len(lane):
                lane, comp, cursor, t, hi, guard = (
                    x[live] for x in (lane, comp, cursor, t, hi, guard))
                if not len(lane):
                    break
        dt = gauge(t)
        fdt = draws.uniform(lane, 0.8, 0.98) * dt
        guard += 1
        L = np.maximum(cursor, t - fdt)
        R = np.minimum(1.0, t + fdt)
        kept = R > L
        items.append((lane[kept], L[kept], R[kept]))
        if len(items) == _PACK_STEP_CHUNK:
            chunks.append(tuple(map(np.concatenate, zip(*items))))
            items = []
        np.copyto(cursor, R, where=kept)
        t_new = np.minimum(hi, t + np.maximum(dt, 1e-12))
        leave = np.where(kept, R >= hi, t_new >= hi)
        step = (kept & ~leave).nonzero()[0]
        if len(step):
            gap = gauge(cursor[step]) * draws.uniform(lane[step], 0.5, 0.9)
            t_new[step] = np.minimum(hi[step], cursor[step] + gap)
            leave[step] = t_new[step] <= t[step]
        t = t_new
        leave |= guard >= _PACK_MAX_ITEMS
    if not chunks and not items:
        return [0.0] * n_lanes
    owner, a, b = map(np.concatenate, zip(*chunks, *items))
    order = np.argsort(owner, kind="stable")  # a lane's items in walk order
    ends = np.cumsum(np.bincount(owner, minlength=n_lanes))
    values, start = [], 0
    for end in ends:
        sel = order[start:end]
        values.append(_fsum(_row_max(np.abs(phi.query_batch(a[sel], b[sel]))))
                      if len(sel) else 0.0)
        start = end
    return values


def _built_primitives(eval_blocks, grid, gauge, blocks):
    """{block: Primitive} on one cousin partition of [0, 1], from one evaluation.

    Cell values are |I| Gamma(t) at the build tags, so variational sums
    against these primitives measure the integrator's self-consistency.
    """
    P = cousin_build(gauge, tag_order="mid")
    vals = eval_blocks(P.t, blocks)
    terms = {k: vals[k] * P.widths[:, None] for k in blocks}
    del vals
    return {k: Primitive(grid, P.a, P.widths, terms.pop(k)) for k in blocks}


def build_primitive(mf, gauge):
    """Primitive of mf on the dyadic cells of one cousin partition of [0, 1]."""
    return _built_primitives(_one_block(mf.eval_support), mf.grid, gauge, [0])[0]
