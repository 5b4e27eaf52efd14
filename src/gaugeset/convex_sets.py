"""Exact arithmetic for convex compact subsets of R^d via support functions.

A convex compact set A is encoded by its support values on a fixed grid of
unit directions U = {u_1, ..., u_m}:

    h_A(u) = sup { <u, x> : x in A },        values[k] = h_A(u_k).

On a shared grid this embedding is linear and isometric:

    h_{aA + bB} = a h_A + b h_B   (a, b >= 0),
    d_H(A, B)   = max_k |h_A(u_k) - h_B(u_k)|,

so Minkowski sums, nonnegative scaling and translation are exact vector
operations, and the Hausdorff metric is the sup norm of the value vectors.
For d = 1 the grid is {-1, +1} and every interval is represented exactly.
For d = 2 the grid has m equally spaced directions (m even, default 64);
values are grid-exact: distances and norms are exact for grid polytopes and
grid evaluations of balls, and lower bounds for other bodies.

A raw value vector need not be a support function.  Canonical form is
restored by re-evaluating the halfplane intersection

    P = cap_k { x : <u_k, x> <= values[k] }

on the grid; re-evaluation can only shrink values, and a vector already of
the form h_A is a fixed point.  Empty intersections are rejected.

The Steiner point is computed from the same data:

    d = 1:  s(A) = (h(+1) - h(-1)) / 2                (interval midpoint)
    d = 2:  s(A) = (2/m) sum_k u_k h_A(u_k)           (grid quadrature)

The d = 2 formula is the quadrature of (1/pi) int_{S^1} u h_A(u) du over the
symmetric grid; it is exact for singletons, balls and segments, additive and
translation-equivariant for everything, and lands inside A up to quadrature
error for general grid polytopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EmptySupportSet, GridMismatch

CANON_TOL = 1e-9          # absolute feasibility / membership tolerance
CANON_TOL_RELAXED = 1e-6  # second-chance feasibility before declaring empty
_PAIR_DET_MIN = 1e-12     # constraint pairs more parallel than this are skipped


class DirectionGrid:
    """Fixed grid of unit directions shared by all sets in one computation.

    d = 1 uses exactly (-1, +1); d = 2 uses m equally spaced angles with m
    even, so the grid is symmetric under negation.  Instances are cached by
    (d, m); equality and hashing follow (d, m).
    """

    __slots__ = ("d", "m", "dirs")

    def __init__(self, d, dirs):
        # a copy, so that freezing it leaves the caller's array writeable
        dirs = np.array(dirs, dtype=np.float64, order="C")
        if dirs.ndim != 2 or dirs.shape[1] != d:
            raise ValueError(f"a d={d} grid needs directions of shape (m, {d}), got {dirs.shape}")
        self.d = d
        self.m = dirs.shape[0]
        dirs.flags.writeable = False
        self.dirs = dirs

    @staticmethod
    @lru_cache(maxsize=None)
    def line():
        return DirectionGrid(1, np.array([[-1.0], [1.0]]))

    @staticmethod
    @lru_cache(maxsize=None)
    def circle(m=64):
        if m < 4 or m % 2 != 0:
            raise ValueError(f"circle grid needs even m >= 4, got {m}")
        ang = 2.0 * np.pi * np.arange(m) / m
        return DirectionGrid(2, np.stack([np.cos(ang), np.sin(ang)], axis=1))

    def __eq__(self, other):
        return isinstance(other, DirectionGrid) and self.d == other.d and self.m == other.m

    def __hash__(self):
        return hash((self.d, self.m))

    def __repr__(self):
        return f"DirectionGrid(d={self.d}, m={self.m})"


def _check_grids(a, b):
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid!r} vs {b.grid!r}")


@dataclass(frozen=True)
class SupportSet:
    """Convex compact set as a support-value vector on a direction grid.

    Direct construction trusts ``values`` to already be support evaluations
    (everything produced by this module's operations is).  Raw vectors from
    outside go through :func:`canonical_values` first.
    """

    grid: DirectionGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writeable
        v = np.array(self.values, dtype=np.float64, order="C")
        if v.shape != (self.grid.m,):
            raise ValueError(f"expected {self.grid.m} support values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("support values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __repr__(self):
        if self.grid.d == 1:
            return f"SupportSet[{-self.values[0]:.6g}, {self.values[1]:.6g}]"
        return f"SupportSet(d=2, m={self.grid.m}, |A|={norm(self):.6g})"


def canonical_values(grid, values):
    """Support values of the halfplane intersection defined by ``values``.

    Raises EmptySupportSet when the intersection is empty beyond tolerance.
    """
    v = np.asarray(values, dtype=np.float64)
    if grid.d == 1:
        s = v[0] + v[1]
        if s >= 0.0:
            return v.copy()
        if s < -CANON_TOL:
            raise EmptySupportSet(f"interval [-{v[0]}, {v[1]}] has negative width {s}")
        mid = (v[1] - v[0]) / 2.0  # within tolerance of a point: snap to it
        return np.array([-mid, mid])
    verts = _feasible_vertices(grid, v, CANON_TOL)
    if verts.size == 0:
        verts = _feasible_vertices(grid, v, CANON_TOL_RELAXED)
    if verts.size == 0:
        raise EmptySupportSet("halfplane intersection is empty on the grid")
    return (verts @ grid.dirs.T).max(axis=0)


def _line_meets(U, i, j, vi, vj):
    """det = U[i] x U[j] and the (n, 2) meets of <U[i], x> = vi, <U[j], x> = vj, elementwise."""
    det = U[i, 0] * U[j, 1] - U[i, 1] * U[j, 0]
    x = (vi * U[j, 1] - vj * U[i, 1]) / det
    y = (U[i, 0] * vj - U[j, 0] * vi) / det
    return det, np.stack([x, y], axis=-1)


def _feasible_vertices(grid, v, tol):
    U = grid.dirs
    i, j = np.triu_indices(grid.m, k=1)
    with np.errstate(all="ignore"):  # the near-parallel pairs' points, dropped next
        det, pts = _line_meets(U, i, j, v[i], v[j])
    pts = pts[np.abs(det) > _PAIR_DET_MIN]
    feas = ((pts @ U.T) <= v[None, :] + tol).all(axis=1)
    return pts[feas]


# -- constructors ------------------------------------------------------------

def make_interval(a, b, grid=None):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if a > b:
        raise ValueError(f"interval endpoints out of order: {a} > {b}")
    grid = grid or DirectionGrid.line()
    if grid.d != 1:
        raise GridMismatch("make_interval needs a d=1 grid")
    return SupportSet(grid, np.array([-a, b], dtype=np.float64))


def make_point(grid, x):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (grid.d,):
        raise GridMismatch(f"point has dimension {x.shape}, grid has d={grid.d}")
    return SupportSet(grid, grid.dirs @ x)


def make_ball(grid, center, radius):
    if radius < 0:
        raise ValueError("ball radius must be nonnegative")
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if c.shape != (grid.d,):
        raise GridMismatch(f"center has dimension {c.shape}, grid has d={grid.d}")
    return SupportSet(grid, grid.dirs @ c + radius)


def from_points(grid, points):
    """Convex hull of finitely many points, evaluated on the grid.

    Test oracle: exact grid hulls for the Minkowski, Steiner and
    canonicalization tests.
    """
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if P.shape[1] != grid.d:
        raise GridMismatch(f"points have dimension {P.shape[1]}, grid has d={grid.d}")
    return SupportSet(grid, (P @ grid.dirs.T).max(axis=0))


# -- arithmetic and metric ---------------------------------------------------

def minkowski_add(A, B):
    """A + B.  Paper claim: the support embedding is additive, h(A + B) = h(A) + h(B)."""
    _check_grids(A, B)
    return SupportSet(A.grid, A.values + B.values)


def scale(A, lam):
    if lam < 0:
        raise ValueError(
            f"scale factor must be >= 0 (got {lam}); support values are not "
            "pointwise under negative scaling"
        )
    return SupportSet(A.grid, A.values * lam)


def translate(A, x):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (A.grid.d,):
        raise GridMismatch(f"translation has dimension {x.shape}, set has d={A.grid.d}")
    return SupportSet(A.grid, A.values + A.grid.dirs @ x)


def hausdorff(A, B):
    _check_grids(A, B)
    return float(np.max(np.abs(A.values - B.values)))


def norm(A):
    """Radstrom norm max_k |h_A(u_k)|; equals d_H(A, {0}) on the grid."""
    return float(np.max(np.abs(A.values)))


def steiner_point(A):
    if A.grid.d == 1:
        return np.array([(A.values[1] - A.values[0]) / 2.0])
    return (2.0 / A.grid.m) * (A.values @ A.grid.dirs)


def contains_point(A, x, slack=CANON_TOL):
    """x in A up to slack.  Paper claim: the Steiner point is a selection (lies in A)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return bool(np.all(A.grid.dirs @ x <= A.values + slack))


# -- primitives: additive interval maps --------------------------------------

class Primitive:
    """Additive interval map I -> SupportSet on a variable-depth dyadic tiling.

    Built from a full partition of [0,1] into dyadic cells (each width 2^-k,
    dyadically aligned, depths may differ across cells) with one value vector
    per cell; cell values are typically w * h_{Gamma(t)}.  It keeps the
    cells' starts, widths and values (as given where in order, owning their
    memory and read-only, as a TaggedPartition's are; else copied, sorted by
    start), int16 depths and prefix sums, all read-only.  Exact values are
    summed in tree order: from the deepest depth up, each left sibling
    absorbs its right neighbour (the next cell in position order), so for
    every tree node

        node value == left child value + right child value   (bit exact).

    ``query_batch`` weights the cells by their covered shares, through
    prefix sums of the cell values.
    """

    def __init__(self, grid, starts, widths, cell_values):
        starts, widths, V = (np.asarray(x, dtype=np.float64) for x in (starts, widths, cell_values))
        if V.ndim != 2 or V.shape != (len(starts), grid.m):
            raise ValueError("cell_values must be (n_cells, m)")
        if np.all(starts[1:] >= starts[:-1]):  # in order (false at a NaN): no sort, no gather
            starts, widths, V = (x if x.flags.owndata and not x.flags.writeable else np.array(x)
                                 for x in (starts, widths, V))
        else:
            order = np.argsort(starts)
            starts, widths, V = starts[order], widths[order], V[order]
        depths = np.empty(len(starts), dtype=np.int16)
        chunks = [slice(lo, lo + (1 << 16)) for lo in range(0, len(starts), 1 << 16)]

        def index(rows):  # the starts in cell units, and the nearest integers
            scaled = starts[rows] * 2.0 ** depths[rows].astype(float)
            return scaled, np.round(scaled).astype(np.int64)

        # checked 2^16 cells at a time, in order: dyadic widths; alignment in
        # cell units (a start may carry rounding noise: one ulp near 1 is about
        # 1e-4 of a cell at depth 40, not a shift of the cell); depth; tiling,
        # in integer positions at the deepest depth (each cell ends where the next starts)
        aligned = True
        for rows in chunks:
            depths[rows] = np.round(-np.log2(widths[rows])).astype(int)
            if not np.max(np.abs(widths[rows] * 2.0 ** depths[rows].astype(float) - 1.0)) <= 1e-12:
                raise ValueError("cell widths must be dyadic (2^-k)")
            scaled, idx = index(rows)
            aligned = aligned and np.max(np.abs(scaled - idx)) <= 1e-3
        if not aligned:
            raise ValueError("cells must be dyadically aligned")
        self.level = int(depths.max())
        if self.level > 62:
            raise ValueError("tilings deeper than 62 levels are not supported")
        tiled, end = True, 0
        for rows in chunks:
            shift = self.level - depths[rows]
            pos = index(rows)[1] << shift
            ends = pos + (np.int64(1) << shift)
            tiled, end = tiled and pos[0] == end and np.array_equal(pos[1:], ends[:-1]), ends[-1]
        if not (tiled and end == 1 << self.level):
            raise ValueError("cells do not tile [0, 1]")
        self._prefix = np.zeros((len(V) + 1, grid.m))
        np.cumsum(V, axis=0, out=self._prefix[1:])
        for x in (starts, widths, V, depths, self._prefix):
            x.flags.writeable = False
        self.grid, self._starts, self._widths, self._depths = grid, starts, widths, depths
        self._cellV = V

    @property
    def cells(self):
        """(starts, widths) of the underlying tiling, sorted."""
        return self._starts, self._widths

    @staticmethod
    def _tree_sum(V, depths, top):
        """Rows V of all cells under one node of depth ``top``, summed in tree
        order: at each depth, nodes pair up as neighbours in position order."""
        V = np.array(V)
        for depth in range(int(depths.max()), top, -1):
            pair = np.flatnonzero(depths == depth)
            left, right = pair[0::2], pair[1::2]
            V[left] += V[right]
            keep = np.ones(len(V), dtype=bool)
            keep[right] = False
            V, depths = V[keep], np.minimum(depths[keep], depth - 1)
        return V[0]

    def node_value(self, depth, index):
        w = 2.0 ** (-depth)  # the cells [lo, hi) whose starts lie in the node
        lo, hi = np.searchsorted(self._starts, [index * w, (index + 1) * w])
        if hi == lo or self._depths[lo] < depth:
            raise KeyError((depth, index))
        return self._tree_sum(self._cellV[lo:hi], self._depths[lo:hi], depth)

    def query_batch(self, a, b):
        """Value matrix (n, m) for interval batches, via prefix sums.

        Row i is _prefix_at(b[i]) - _prefix_at(a[i]) of the ends clipped to
        [0, 1], or 0 where b[i] <= a[i] then, as ExactIntervalMap gives it.
        _prefix_at works point by point, so in a chunk whose clipped
        intervals abut (a[i + 1] == b[i], as Cousin cells do) it is taken once
        per edge.  Rows go into the output about 2^16 values at a time, so one
        chunk's clipped ends, edges, indices, fractions and gathers are all it
        holds beside it.
        """
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        out = np.empty((len(a), self.grid.m))
        step = max(1, (1 << 16) // self.grid.m)
        for lo in range(0, len(a) or 1, step):  # an empty batch is one empty chunk
            rows = slice(lo, lo + step)
            ca, cb = np.clip(a[rows], 0.0, 1.0), np.clip(b[rows], 0.0, 1.0)
            if len(ca) > 1 and np.array_equal(ca[1:], cb[:-1]):  # abutting: once per edge
                p = self._prefix_at(np.concatenate((ca[:1], cb)))
                np.subtract(p[1:], p[:-1], out=out[rows])
            else:
                np.subtract(self._prefix_at(cb), self._prefix_at(ca), out=out[rows])
            out[rows][cb <= ca] = 0.0
        return out

    def _prefix_at(self, t):
        """prefix[j] + cellV[j] * frac at each t, built in one (n, m) buffer.

        Addition commutes, so adding prefix[j] in place last gives the
        bits of the expression as written.
        """
        j = np.searchsorted(self._starts, t, side="right") - 1
        j = np.clip(j, 0, len(self._starts) - 1)
        frac = (t - self._starts[j]) / self._widths[j]
        frac = np.clip(frac, 0.0, 1.0)
        out = self._cellV[j]
        out *= frac[:, None]
        out += self._prefix[j]
        return out


class ExactIntervalMap:
    """Additive interval map with a closed-form value function.

    ``fn(a, b)`` must accept numpy arrays and return support-value rows; it
    must be additive across abutting intervals up to roundoff.  Used for
    corpus entries whose primitive has a closed form.
    """

    def __init__(self, grid, fn, name=""):
        self.grid = grid
        self.fn = fn
        self.name = name

    def query_batch(self, a, b):
        """fn(a, b) with the rows where b <= a set to 0.

        fn's output is written only when it is writeable; a read-only one
        (such as a broadcast view) is copied first, and only when some row
        is empty.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        out = self.fn(a, b)
        empty = b <= a
        if empty.any():
            if not out.flags.writeable:
                out = out.copy()
            out[empty] = 0.0
        return out
