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


def cousin_build(g, max_depth=_MAX_DEPTH, tag_order="mid", cell_budget=_CELL_BUDGET):
    """Full delta-fine Perron partition of [0, 1] by bisection.

    A dyadic cell of width w is accepted at the first candidate tag t (in
    preference order: midpoint/left/right endpoints, then 8 quasi-random
    interior probes; ``tag_order="left"`` tries the left endpoint first)
    with w < delta(t); otherwise the cell is bisected.  Raises DepthExceeded
    past ``max_depth`` or when the active cell count would exceed the
    budget, signalling a gauge too irregular for the probe set.

    A cell whose width the gauge's bounds decide (Gauge.lower, Gauge.upper)
    is accepted at its first candidate, or bisected, with no gauge call.
    Each depth's active cells are kept in increasing order (children are
    interleaved), and a depth keeps only which of them it accepted, their
    tags and one width.  The cells are then placed in order with no sort:
    counting up from the deepest depth gives the number of cells under each
    bisected cell's left child, and going down again each cell's rank is
    its parent's, plus that count for a right child.  Each tag and width is
    written once at its rank; the right ends are the running sums of the
    widths and the left ends those sums shifted by one.  Every such sum is
    a cell end j 2^-depth, exact in a double up to depth 53, so the ends
    are those of j w and j w + w bit for bit.  The build peaks at about 1.35
    times its output arrays, which TaggedPartition takes without a copy.
    """
    if tag_order not in ("mid", "left"):
        raise ValueError(f"unknown tag_order {tag_order!r}")
    # a + w * c is a + w / 2, a and a + w exactly at c = 0.5, 0 and 1
    offsets = ((0.5, 0.0, 1.0) if tag_order == "mid" else (0.0, 0.5, 1.0)) + _WEYL8
    accepted, tags, widths = [], [], []  # per depth: the active cells' accept mask, tags, width
    idx = np.zeros(1, dtype=np.int64)
    depth = 0
    while len(idx):
        _check_limits(depth, len(idx), max_depth, cell_budget)
        w = 2.0 ** (-depth)
        a = idx * w
        chosen = a + w * offsets[0]  # every cell's first candidate
        # the gauge's bounds settle, with no call, the cells that accept their
        # first candidate (have) and those that accept none; the rest are live
        have = w < g.lower(a)
        live = np.flatnonzero(~have & (w < g.upper(a, a + w)))
        todo = live  # live cells with no accepted candidate yet
        for c in offsets:
            if not len(todo):
                break
            cand = a[todo] + w * c
            d = np.atleast_1d(g(cand))
            if np.min(d) <= 0.0:
                bad = cand[int(np.argmin(d))]
                raise GaugeNotPositive(f"gauge evaluated to {np.min(d)} at t={bad}")
            ok = w < d
            chosen[todo[ok]] = cand[ok]
            todo = todo[~ok]
        have[live] = True
        have[todo] = False
        accepted.append(have)
        tags.append(chosen[have])
        widths.append(w)
        rest = idx[~have]
        idx = np.empty(2 * len(rest), dtype=np.int64)
        idx[0::2] = rest * 2
        idx[1::2] = idx[0::2] + 1
        depth += 1
    del idx, a, chosen, have, live, todo, rest
    # up: the cells under each active cell; keep each bisected cell's left child's
    lefts = [None] * depth
    under = np.zeros(0, dtype=np.int32)  # per active cell of the depth below
    for d in range(depth - 1, -1, -1):
        lefts[d] = under[0::2].copy()
        n = accepted[d].astype(np.int32)
        n[~accepted[d]] = lefts[d] + under[1::2]
        under = n
    # down: each active cell's rank is that of its first cell; place the accepted
    t, w = np.empty(int(under[0])), np.empty(int(under[0]))
    del under
    rank = np.zeros(1, dtype=np.int64)
    for d in range(depth):
        have = accepted[d]
        at = rank[have]
        t[at] = tags[d]
        w[at] = widths[d]
        rank = np.repeat(rank[~have], 2)
        rank[1::2] += lefts[d]
        accepted[d] = tags[d] = lefts[d] = None
    b = np.cumsum(w, out=w)  # right ends, in the widths' buffer
    a = np.empty_like(b)
    a[0] = 0.0
    a[1:] = b[:-1]
    for x in (a, b, t):
        x.flags.writeable = False
    return TaggedPartition(a, b, t)


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
