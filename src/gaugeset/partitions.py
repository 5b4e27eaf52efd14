"""Gauges, delta-fine tagged partitions, and partition builders.

A gauge is a strictly positive width function delta on [0, 1].  A tagged
partition {(I_i, t_i)} is delta-fine when I_i is inside the open window
(t_i - delta(t_i), t_i + delta(t_i)) for every i; Perron partitions keep
t_i inside I_i, free partitions do not.  cousin_build realizes Cousin's
lemma constructively: bisect [0, 1] until each dyadic cell admits a valid
tag from a fixed finite probe set, accepting a cell of width w at tag t
when w < delta(t) (which implies fineness for in-cell tags).

Positivity is probed, not proved: gauges are sampled at 10^4 quasi-random
points plus a dyadic mesh at construction, and every evaluation during a
build re-checks the sampled values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DepthExceeded, GaugeNotPositive

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_WEYL8 = tuple((j * _GOLDEN) % 1.0 for j in range(1, 9))
_POSITIVITY_PROBES = 10_000
_MESH_DEPTH = 12  # positivity probes include the dyadic mesh 2^-12


def _probe_points():
    k = np.arange(1, _POSITIVITY_PROBES + 1)
    weyl = (k * _GOLDEN) % 1.0
    dyadic = np.arange(2 ** _MESH_DEPTH + 1) / 2.0 ** _MESH_DEPTH
    return np.unique(np.concatenate([weyl, dyadic, [0.0, 0.5, 1.0]]))


class Gauge:
    """Positive width function on [0, 1]; callable or piecewise-constant.

    Callable gauges wrap a vectorized ndarray -> ndarray function.  Piecewise
    gauges (``kind == "piecewise"``) are constant on a finite mesh of cells,
    so they are measurable; a schedule of them is a measurable-gauge
    schedule (GaugeSchedule.measurable).

    ``const`` is the value of a gauge built constant (Gauge.constant, a
    one-piece Gauge.step), else None.  ``lower(a)`` and ``upper(a, b)``, if
    given, are vectorized bounds of delta on cells (see Gauge.lower and
    Gauge.upper).  All three are the constructor's promise and are not
    checked.
    """

    __slots__ = ("kind", "_fn", "_breaks", "_values", "name", "const", "_lower", "_upper")

    def __init__(self, kind, fn=None, breaks=None, values=None, name="", const=None,
                 lower=None, upper=None):
        self.kind = kind
        self._fn = fn
        self._breaks = breaks
        self._values = values
        self.name = name
        self.const = const
        self._lower = lower
        self._upper = upper
        probes = _probe_points()
        sampled = self(probes)
        if not np.all(np.isfinite(sampled)) or np.min(sampled) <= 0.0:
            bad = probes[int(np.argmin(sampled))]
            raise GaugeNotPositive(f"gauge {name or kind} is not positive at t={bad!r}")

    @staticmethod
    def from_callable(fn, name=""):
        return Gauge("callable", fn=fn, name=name)

    @staticmethod
    def constant(c, name=None):
        c = float(c)
        return Gauge("callable", fn=lambda ts: np.full_like(np.asarray(ts, dtype=float), c),
                     name=name or f"const({c:g})", const=c)

    @staticmethod
    def step(breaks, values, name=""):
        """Piecewise-constant gauge on contiguous cells [b_k, b_{k+1})."""
        breaks = np.asarray(breaks, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if len(breaks) != len(values) + 1:
            raise ValueError("need len(breaks) == len(values) + 1")
        if breaks[0] != 0.0 or breaks[-1] != 1.0 or np.any(np.diff(breaks) <= 0):
            raise ValueError("breaks must increase from 0 to 1")
        return Gauge("piecewise", breaks=breaks, values=values, name=name,
                     const=float(values[0]) if len(values) == 1 else None)

    def __call__(self, ts):
        ts = np.asarray(ts, dtype=np.float64)
        scalar = ts.ndim == 0
        ts1 = np.atleast_1d(ts)
        if self.kind == "callable":
            out = np.asarray(self._fn(ts1), dtype=np.float64)
        else:
            j = np.searchsorted(self._breaks, ts1, side="right") - 1
            j = np.clip(j, 0, len(self._values) - 1)
            out = self._values[j]
        return float(out[0]) if scalar else out

    def lower(self, a):
        """A bound below delta(u) at every u in [a, 1], for each left end a.

        A cell [a, b] with b - a < lower(a) is fine at any tag in the cell
        under the in-cell rule w < delta(t), with no call to the gauge.  The
        bound is the value of a constant gauge, the constructor's ``lower``
        otherwise, and 0 (no cell settles) for any other gauge, such as
        every Gauge.from_callable.
        """
        return self._bound(self._lower, 0.0, a)

    def upper(self, a, b):
        """A bound above delta(u) at every u in [a, b], for each cell [a, b].

        A cell with b - a >= upper(a, b) is fine at no tag in the cell under
        the in-cell rule, with no call to the gauge.  The bound is the value
        of a constant gauge, the constructor's ``upper`` otherwise, and inf
        (no cell settles) for any other gauge.
        """
        return self._bound(self._upper, np.inf, a, b)

    def _bound(self, fn, default, a, *rest):
        a = np.asarray(a, dtype=np.float64)
        if self.const is not None:
            return np.full(a.shape, self.const)
        return np.full(a.shape, default) if fn is None else fn(a, *rest)


@dataclass(frozen=True)
class TaggedPartition:
    """Finite list of (interval, tag) pairs, sorted by left endpoint.

    Endpoints and tags must be finite, and every width positive.  Input out
    of order is sorted by a; input in order is copied, read-only, except
    an array that owns its memory and is read-only already, which is kept.
    """

    a: np.ndarray
    b: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64)
        if not (a.shape == b.shape == t.shape) or a.ndim != 1 or len(a) == 0:
            raise ValueError("need matching nonempty 1-d arrays a, b, t")
        if np.all(a[1:] >= a[:-1]):  # already in order (false at a NaN)
            # an array that owns its memory and is already read-only (a
            # builder's own, or another partition's) is taken as it is
            a, b, t = (x if x.flags.owndata and not x.flags.writeable else np.array(x)
                       for x in (a, b, t))
        else:  # timsort: runs already in order are merged, not re-sorted
            order = np.argsort(a, kind="stable")
            a, b, t = a[order], b[order], t[order]
        if not np.all(b > a):  # also false at a NaN endpoint
            raise ValueError("intervals must have positive width")
        overlap = np.any(b[:-1] > a[1:])
        # sorted cells of positive width that do not overlap keep every
        # endpoint in [a[0], b[-1]]; overlapping input is rejected anyway,
        # and is checked in full so that it fails with the same message
        ends = (a, b) if overlap else (a[0], b[-1])
        if not (np.all(np.isfinite(ends[0]) & np.isfinite(ends[1]))
                and np.all(np.isfinite(t))):
            raise ValueError("endpoints and tags must be finite")
        if overlap:
            raise ValueError("interval interiors overlap")
        for arr in (a, b, t):
            arr.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "t", t)

    @cached_property
    def widths(self):
        """b - a, computed at the first read and read-only."""
        w = self.b - self.a
        w.flags.writeable = False
        return w

    def __len__(self):
        return len(self.a)


def _window_fine(a, b, t, g):
    """Cellwise: [a, b] lies inside the open window (t - delta(t), t + delta(t))."""
    d = np.atleast_1d(g(t))
    return (a > t - d) & (b < t + d)


def is_delta_fine(P, g, require_perron=False):
    """True when every I_i lies inside (t_i - delta, t_i + delta), and with
    ``require_perron`` every t_i in I_i.  Paper claim: Cousin's lemma."""
    fine = bool(np.all(_window_fine(P.a, P.b, P.t, g)))
    if require_perron:
        fine = fine and bool(np.all((P.a <= P.t) & (P.t <= P.b)))
    return fine


_MAX_DEPTH = 40
_CELL_BUDGET = 1 << 22
_ROW_BLOCK = 1 << 15  # cells a Cousin level is built, expanded and read in at a time
_WIDTHS = np.ldexp(1.0, -np.arange(256))  # a cell's width by its depth
_LATER = 0xFFFF  # the slot of a cell that a later run finishes


def _check_limits(depth, active, max_depth, cell_budget):
    """cousin_build's limits on the cells active at one depth."""
    if depth > max_depth:
        raise DepthExceeded(
            f"no acceptance after depth {max_depth} ({active} cells active)",
            depth=max_depth, active_cells=active)
    if active > cell_budget:
        raise DepthExceeded(
            f"active cell count {active} exceeds budget at depth {depth}",
            depth=depth, active_cells=active)


def check_budget(g, max_depth=_MAX_DEPTH, cell_budget=_CELL_BUDGET):
    """Raise the DepthExceeded that cousin_build(g) would raise, without a build.

    Only a constant gauge c (``g.const``) is decided here: all 2^k cells of
    depth k stay active until the first depth with 2^-k < c, where every
    cell is accepted at its first candidate.  Any other gauge passes, and
    cousin_build checks it as it goes.
    """
    if g.const is None:
        return
    depth = 0
    while True:
        _check_limits(depth, 1 << depth, max_depth, cell_budget)
        if 2.0 ** -depth < g.const:
            return
        depth += 1


class CousinPartition:
    """A cousin_build partition of [0, 1]: two bytes a cell, in row order.

    ``codes`` holds each cell's depth (high byte) and the index of its tag
    in the build's offsets (low byte).  block(rows) expands any rows bit for
    bit: w = 2^-depth, ends by np.cumsum from their row block's kept start,
    t = a + w * offsets[choice]; the level loop expands each row block once.
    The whole a, b, t and widths are made at the first read, read-only.
    """

    def __init__(self, codes, offsets):
        self.codes, self._offsets = codes, np.array(offsets)
        self._starts = np.zeros(len(codes) // _ROW_BLOCK + 1)
        for k in range(1, len(self._starts)):  # each block's start is the last one's end
            self._starts[k] = self.block(slice(k * _ROW_BLOCK - _ROW_BLOCK, k * _ROW_BLOCK))[1][-1]

    def __len__(self):
        return len(self.codes)

    def block(self, rows):
        """(a, b, t, widths) of the cells ``rows`` (a slice)."""
        lo, hi, _ = rows.indices(len(self.codes))
        base = lo - lo % _ROW_BLOCK
        w = _WIDTHS.take(self.codes[base:max(lo, hi)] >> 8)
        x = np.empty(len(w) + 1)  # x[j], x[j + 1]: row base + j's ends
        x[0], x[1:] = self._starts[base // _ROW_BLOCK], w
        np.cumsum(x, out=x)
        a, b = x[lo - base:-1], x[lo - base + 1:]
        w = w[lo - base:] if lo > base else w  # the whole widths stay their own array
        return a, b, a + w * self._offsets.take(self.codes[lo:hi] & 0xFF), w

    @cached_property
    def _whole(self):
        a, b, t, w = self.block(slice(None))
        arrays = a.copy(), b.copy(), t, w  # the ends, each its own array
        for x in arrays:
            x.flags.writeable = False
        return arrays

    a, b, t, widths = (property(lambda self, i=i: self._whole[i]) for i in range(4))


def cousin_build(g, max_depth=_MAX_DEPTH, tag_order="mid", cell_budget=_CELL_BUDGET):
    """Full delta-fine Perron partition of [0, 1] by bisection (a CousinPartition).

    A dyadic cell of width w is accepted at the first candidate tag t (in
    preference order: midpoint/left/right endpoints, then 8 quasi-random
    interior probes; ``tag_order="left"`` tries the left endpoint first)
    with w < delta(t); otherwise the cell is bisected.  Raises DepthExceeded
    past ``max_depth`` or when the active cell count would exceed the
    budget, signalling a gauge too irregular for the probe set.

    A cell whose width the gauge's bounds decide (Gauge.lower, Gauge.upper)
    is accepted at its first candidate, or bisected, with no gauge call.
    The build is breadth first over runs of consecutive active cells, a run
    whose next depth would hold more than _ROW_BLOCK being split into later
    runs, finished in row order; its codes fall in row order with no sort.
    Active counts are summed per depth over the runs; no run goes below the
    shallowest depth whose sum passes a limit, or where the gauge was <= 0.
    The build raises the whole-depth build's first error: DepthExceeded at
    the shallowest failing limit, or GaugeNotPositive at a shallower depth
    (its first candidate and least value, as a whole depth names them).
    """
    if tag_order not in ("mid", "left"):
        raise ValueError(f"unknown tag_order {tag_order!r}")
    # a + w * c is a + w / 2, a and a + w exactly at c = 0.5, 0 and 1
    offsets = ((0.5, 0.0, 1.0) if tag_order == "mid" else (0.0, 0.5, 1.0)) + _WEYL8
    # active cells per depth, codes in row order, (depth, k, value, t) of each gauge <= 0
    counts, pieces, stop, bad = {}, [], [math.inf], []

    def segment(idx, depth, held, gaps):
        """A run's slots (``held`` codes before its cells ``gaps``; none past a limit), its
        later runs' cells and depth, and each later run's first and last slots."""
        accepted, chosen = [], []
        while True:
            counts[depth] = counts.get(depth, 0) + len(idx)
            if depth > max_depth or counts[depth] > cell_budget:
                stop[0] = min(stop[0], depth)
            if depth >= stop[0]:
                return np.zeros(0, np.uint16), idx, depth, []
            w = 2.0 ** (-depth)
            a = idx * w
            choice = np.zeros(len(idx), dtype=np.int64)  # the first candidate
            # the gauge's bounds settle, with no call, the cells that accept their
            # first candidate (have) and those that accept none; the rest are live
            have = w < g.lower(a)
            live = np.flatnonzero(~have & (w < g.upper(a, a + w)))
            todo = live  # live cells with no accepted candidate yet
            for k, c in enumerate(offsets):
                if not len(todo):
                    break
                cand = a[todo] + w * c
                d = np.atleast_1d(g(cand))
                if np.min(d) <= 0.0:  # this run ends; its depth is the deepest any run reaches
                    bad.append((depth, k, np.min(d), cand[int(np.argmin(d))]))
                    stop[0] = min(stop[0], depth + 1)
                    return np.zeros(0, np.uint16), idx, depth, []
                ok = w < d
                choice[todo[ok]] = k
                todo = todo[~ok]
            have[live] = True
            have[todo] = False
            accepted.append(have)
            chosen.append((depth << 8) | choice[have])
            rest = idx[~have]
            idx = np.stack((2 * rest, 2 * rest + 1), axis=1).ravel()  # the children, in order
            depth += 1
            if not len(idx) or len(idx) > _ROW_BLOCK:
                break
        # up: the slots under each cell; keep each bisected cell's left child's
        lefts, under = [None] * len(accepted), np.ones(len(idx), dtype=np.int64)
        for d in range(len(accepted) - 1, -1, -1):
            lefts[d] = under[0::2]
            n = accepted[d].astype(np.int64)
            n[~accepted[d]] = lefts[d] + under[1::2]
            under = n
        # down: the top cells' slots come after the held codes before them
        ends = np.concatenate(([0], np.cumsum(under)))
        rank = ends[:-1] + np.searchsorted(gaps, np.arange(len(under)), side="right")
        slots = np.empty(ends[-1] + len(held), dtype=np.uint16)
        slots[ends[gaps] + np.arange(len(gaps))] = held
        for d in range(len(accepted)):
            slots[rank[accepted[d]]] = chosen[d]
            rank = np.repeat(rank[~accepted[d]], 2)
            rank[1::2] += lefts[d]
        slots[rank] = _LATER
        return slots, idx, depth, [(rank[lo], rank[min(lo + _ROW_BLOCK, len(idx)) - 1])
                                   for lo in range(0, len(idx), _ROW_BLOCK)]

    def finish(idx, depth, held, gaps):
        """Append to pieces a run's codes and those of the later runs it splits into."""
        (slots, idx, depth, later), done = segment(idx, depth, held, gaps), 0
        for lo, (first, last) in zip(range(0, len(idx), _ROW_BLOCK), later):  # in order
            pieces.append(slots[done:first].copy())
            span = slots[first:last + 1]
            mine = span == _LATER  # the later run's own cells; the rest go down with it
            finish(idx[lo:lo + _ROW_BLOCK], depth, span[~mine], np.cumsum(mine)[~mine])
            done = last + 1
        pieces.append(slots[done:].copy())

    finish(np.zeros(1, np.int64), 0, np.zeros(0, np.uint16), np.zeros(0, np.int64))
    first = min(bad, default=(math.inf,))
    for depth, active in sorted(counts.items()):
        if depth <= first[0]:
            _check_limits(depth, active, max_depth, cell_budget)
    if bad:
        raise GaugeNotPositive(f"gauge evaluated to {first[2]} at t={first[3]}")
    return CousinPartition(np.concatenate(pieces), offsets)


@dataclass(frozen=True)
class MeasurablePartition:
    """Partition of [0, 1] into n_pieces residue classes of dyadic cells.

    Piece r is the union of the width-2^-depth cells [j w, (j + 1) w) with
    j = r (mod n_pieces); each piece has measure 1 / n_pieces.  With
    n_pieces < 2^depth the pieces are interleaved, non-interval sets.
    """

    n_pieces: int
    depth: int

    def __post_init__(self):
        n = self.n_pieces
        if n < 1 or n & (n - 1) or n > 1 << self.depth:
            raise ValueError("n_pieces must be a power of two no larger than 2^depth")

    @property
    def width(self):
        return 2.0 ** -self.depth

    def left_edges(self):
        """(n_pieces, cells per piece) array; row r holds piece r's cells in order."""
        return np.arange(1 << self.depth).reshape(-1, self.n_pieces).T * self.width

    def refines(self, coarser):
        """True when every piece of self lies inside one piece of coarser.

        Each cell at the finer depth is mapped to its piece on both sides.
        """
        depth = max(self.depth, coarser.depth)
        cells = np.arange(1 << depth)
        fine = (cells >> (depth - self.depth)) % self.n_pieces
        coarse = (cells >> (depth - coarser.depth)) % coarser.n_pieces
        owner = np.empty(self.n_pieces, dtype=np.int64)
        owner[fine] = coarse
        return bool(np.array_equal(owner[fine], coarse))


def measurable_partition(n_pieces, interleave_depth=0):
    """Partition into n_pieces = 2^l residue classes of dyadic cells at depth max(l, d).

    With interleave_depth d > l the pieces are honest non-interval measurable
    sets (interleaved unions of width-2^-d cells); with d <= l they are plain
    intervals.  Piece r collects the cells with index j = r (mod n_pieces).
    A single piece is the interval [0, 1] at depth 0.
    """
    depth = max(n_pieces.bit_length() - 1, int(interleave_depth)) if n_pieces > 1 else 0
    return MeasurablePartition(n_pieces, depth)
