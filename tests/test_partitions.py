import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeset import partitions
from gaugeset.corpus import named_schedule
from gaugeset.errors import DepthExceeded, GaugeNotPositive
from gaugeset.integrators import origin_schedule
from gaugeset.partitions import (
    _MAX_DEPTH,
    _ROW_BLOCK,
    Gauge,
    MeasurablePartition,
    TaggedPartition,
    check_budget,
    cousin_build,
    is_delta_fine,
    measurable_partition,
)

QUARTERS = np.arange(5) / 4.0  # the edges of four quarter cells


def tiles(P):
    """The cells abut exactly from 0 to 1, so they tile [0, 1]."""
    return bool(P.a[0] == 0.0 and P.b[-1] == 1.0 and np.all(P.a[1:] == P.b[:-1]))


def test_constant_gauge_cousin_four_cells():
    P = cousin_build(Gauge.constant(0.3))
    assert len(P) == 4
    np.testing.assert_allclose(P.t, [0.125, 0.375, 0.625, 0.875])
    assert tiles(P) and np.all((P.a <= P.t) & (P.t <= P.b))


def test_cousin_acceptance_is_strict():
    # width 0.25 is NOT fine for delta = 0.25, so bisection must continue
    P = cousin_build(Gauge.constant(0.25))
    assert np.all(P.widths < 0.25)
    assert len(P) == 8


def test_cousin_left_order_same_cells_different_tags():
    g = Gauge.constant(0.3)
    Pm = cousin_build(g, tag_order="mid")
    Pl = cousin_build(g, tag_order="left")
    np.testing.assert_array_equal(Pm.a, Pl.a)
    np.testing.assert_array_equal(Pm.b, Pl.b)
    np.testing.assert_array_equal(Pl.t, Pl.a)


def test_cousin_rejects_unknown_tag_order():
    with pytest.raises(ValueError):
        cousin_build(Gauge.constant(0.3), tag_order="right")


def test_gauge_positivity_checked_at_probes():
    with pytest.raises(GaugeNotPositive):
        Gauge.from_callable(lambda ts: ts - 0.5)  # negative on [0, 0.5)


def test_gauge_positivity_checked_during_build():
    # positive at construction probes but vanishing on a thin dyadic slit
    fn = lambda ts: np.where(np.abs(ts - 1 / 3) < 1e-9, -1.0, 0.3)
    g = Gauge.from_callable(fn)
    P = cousin_build(g)  # probes never land on the slit at this scale
    assert is_delta_fine(P, Gauge.constant(0.3))


def test_depth_exceeded_on_tiny_gauge():
    with pytest.raises(DepthExceeded) as ei:
        cousin_build(Gauge.constant(1e-15), max_depth=12)
    assert ei.value.depth == 12
    assert ei.value.active_cells > 0


def test_cell_budget_guard():
    with pytest.raises(DepthExceeded):
        cousin_build(Gauge.constant(1e-6), cell_budget=1000)


def test_schedule_monotonicity_check_is_exact():
    # the sampled check is exact: a growth of one part in 2^50 is rejected
    with pytest.raises(ValueError):
        origin_schedule(1.0, 1.0, 0.1, 1.0 + 2.0 ** -50, levels=3)


@pytest.mark.parametrize("schedule_id", ["uniform", "henstock-origin", "vh-origin"])
@pytest.mark.parametrize("tag_order", ["mid", "left"])
def test_cousin_build_emits_each_depth_in_order(schedule_id, tag_order):
    levels = named_schedule(schedule_id, levels=9).levels
    for P in (cousin_build(g, tag_order=tag_order) for g in levels):
        # the depths' runs come merged: each cell abuts the next, so every
        # depth's cells, and all of them, are in increasing order
        assert np.all(P.b > P.a) and np.array_equal(P.a[1:], P.b[:-1])


def _per_depth_build(g, tag_order):
    """cousin_build as it was before it placed the cells itself.

    Each depth's accepted starts, tags and widths are kept as one increasing
    run, and TaggedPartition's stable sort merges the runs.  The oracle of
    test_cousin_build_equals_the_merged_per_depth_runs.
    """
    offsets = ((0.5, 0.0, 1.0) if tag_order == "mid" else (0.0, 0.5, 1.0)) + partitions._WEYL8
    starts, tags, widths = [], [], []
    idx = np.zeros(1, dtype=np.int64)
    depth = 0
    while len(idx):
        w = 2.0 ** (-depth)
        a = idx * w
        chosen = np.full(len(idx), np.nan)
        todo = np.arange(len(idx))
        for c in offsets:
            cand = a[todo] + w * c
            ok = w < np.atleast_1d(g(cand))
            chosen[todo[ok]] = cand[ok]
            todo = todo[~ok]
        have = ~np.isnan(chosen)
        starts.append(a[have])
        tags.append(chosen[have])
        widths.append(np.full(np.count_nonzero(have), w))
        rest = idx[~have]
        idx = np.empty(2 * len(rest), dtype=np.int64)
        idx[0::2] = rest * 2
        idx[1::2] = idx[0::2] + 1
        depth += 1
    a, t, w = (np.concatenate(x) for x in (starts, tags, widths))
    return TaggedPartition(a, a + w, t)


@pytest.mark.parametrize("schedule_id", ["uniform", "uniform-measurable", "henstock-origin",
                                         "vh-origin"])
@pytest.mark.parametrize("tag_order", ["mid", "left"])
def test_cousin_build_equals_the_merged_per_depth_runs(schedule_id, tag_order):
    for g in named_schedule(schedule_id).levels:
        P = cousin_build(g, tag_order=tag_order)
        Q = _per_depth_build(g, tag_order)
        for x, y in ((P.a, Q.a), (P.b, Q.b), (P.t, Q.t)):
            assert x.tobytes() == y.tobytes()
        # handed over read-only, the builder's arrays are the partition's own
        assert all(x.flags.owndata and not x.flags.writeable for x in (P.a, P.b, P.t))


def test_is_delta_fine_needs_open_containment():
    P = TaggedPartition(np.array([0.0, 0.5]), np.array([0.5, 1.0]),
                        np.array([0.25, 0.75]))
    assert not is_delta_fine(P, Gauge.constant(0.25))  # a == t - delta
    assert is_delta_fine(P, Gauge.constant(0.26))


def test_is_delta_fine_perron_flag():
    P = TaggedPartition(QUARTERS[:-1], QUARTERS[1:], np.array([0.9, 0.9, 0.9, 0.9]))
    assert is_delta_fine(P, Gauge.constant(2.0))
    assert not is_delta_fine(P, Gauge.constant(2.0), require_perron=True)


def test_partition_abutment_is_exact():
    # an overlap or a gap of 5e-13, below a depth-40 cell's width 2^-40
    with pytest.raises(ValueError):
        TaggedPartition(np.array([0.0, 0.5 - 5e-13]), np.array([0.5, 1.0]),
                        np.array([0.25, 0.75]))
    P = TaggedPartition(np.array([0.0, 0.5 + 5e-13]), np.array([0.5, 1.0]),
                        np.array([0.25, 0.75]))
    assert not tiles(P)
    w = 2.0 ** -40
    P = TaggedPartition(np.array([0.0, 0.5, 0.5 + w]), np.array([0.5, 0.5 + w, 1.0]),
                        np.array([0.25, 0.5, 0.75]))
    assert tiles(P)


def test_partition_sorts_only_out_of_order_input():
    a, b, t = QUARTERS[:-1], QUARTERS[1:], QUARTERS[:-1] + 0.125
    P = TaggedPartition(a, b, t)
    order = np.array([2, 0, 3, 1])
    Q = TaggedPartition(a[order], b[order], t[order])
    for x, y, z in ((P.a, Q.a, a), (P.b, Q.b, b), (P.t, Q.t, t)):
        assert np.array_equal(x, z) and np.array_equal(y, z)
        assert x is not z and not x.flags.writeable  # an own, frozen copy
    assert tiles(P) and tiles(Q)


def test_partition_keeps_only_own_read_only_arrays():
    a, b, t = QUARTERS[:-1].copy(), QUARTERS[1:].copy(), QUARTERS[:-1] + 0.125
    for x in (a, t):
        x.flags.writeable = False
    P = TaggedPartition(a, b, t)
    assert P.a is a and P.t is t  # owned and read-only: kept
    assert P.b is not b and not P.b.flags.writeable  # writeable: copied
    view = np.array(QUARTERS[:-1])[:]  # read-only view of writeable memory
    view.flags.writeable = False
    assert TaggedPartition(view, b, t).a is not view
    Q = TaggedPartition(P.a, P.b, P.t)  # another partition's arrays are shared
    assert Q.a is P.a and Q.b is P.b and Q.t is P.t


def test_partition_validation():
    with pytest.raises(ValueError):
        TaggedPartition(np.array([0.0]), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        TaggedPartition(np.array([0.0, 0.4]), np.array([0.5, 1.0]),
                        np.array([0.2, 0.7]))


@pytest.mark.parametrize("a, b, t", [
    ([0.0, np.nan], [np.nan, 1.0], [0.1, 0.9]),  # NaN endpoints
    ([0.0, 0.5], [0.5, 1.0], [0.25, np.nan]),  # NaN tag
    ([0.0, 0.5], [0.5, np.inf], [0.25, 0.75]),
])
def test_partition_rejects_non_finite(a, b, t):
    with pytest.raises(ValueError):
        TaggedPartition(np.array(a), np.array(b), np.array(t))


@pytest.mark.parametrize("a, b, message", [
    ([0.0, 0.5], [0.5, np.inf], "endpoints and tags must be finite"),
    ([-np.inf, 0.5], [0.5, 1.0], "endpoints and tags must be finite"),
    # an infinite interior end overlaps its neighbour; the finiteness message wins
    ([0.0, 0.5], [np.inf, 1.0], "endpoints and tags must be finite"),
    ([0.0, 0.4], [0.5, 1.0], "interval interiors overlap"),
    ([0.0, 0.5], [0.5, 0.5], "intervals must have positive width"),
    ([0.5, np.nan], [1.0, 0.7], "intervals must have positive width"),
])
def test_partition_rejection_messages(a, b, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TaggedPartition(np.array(a), np.array(b), np.array([0.25, 0.75]))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_cousin_fine_for_random_gauges(seed):
    """Randomized piecewise-constant gauges always yield delta-fine output."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]])
    values = rng.uniform(0.01, 0.5, n)
    g = Gauge.step(breaks, values)
    P = cousin_build(g)
    assert tiles(P)
    assert is_delta_fine(P, g, require_perron=True)


# -- gauge bounds ----------------------------------------------------------------

_BOUNDED_GAUGES = st.one_of(
    st.floats(2.0 ** -500, 2.0 ** 500).map(
        lambda c: origin_schedule(1.0, 1.0, c, 1.0, levels=1).levels[0]),
    st.floats(1e-300, 1e300).map(Gauge.constant),
    st.floats(1e-300, 1e300).map(lambda c: Gauge.step([0.0, 1.0], [c])),
)


@given(_BOUNDED_GAUGES, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_gauge_bounds_delta_on_the_cell(g, x, y):
    a, b = min(x, y), max(x, y)  # a spans subnormals to 1
    lo, hi = g.lower(np.array([a])), g.upper(np.array([a]), np.array([b]))
    assert lo.shape == hi.shape == (1,) and lo[0] >= 0.0
    for u in (a, min(np.nextafter(a, 2.0), b), (a + b) / 2.0, b):
        assert lo[0] <= g(u) <= hi[0]


def test_gauge_without_bound_settles_nothing():
    cells = np.array([0.25, 0.5]), np.array([0.5, 1.0])
    for g in (Gauge.from_callable(lambda ts: ts + 1.0),
              Gauge.step([0.0, 0.5, 1.0], [0.2, 0.1])):
        assert g.const is None
        assert np.array_equal(g.lower(cells[0]), [0.0, 0.0])
        assert np.array_equal(g.upper(*cells), [np.inf, np.inf])
    # the wide window of an origin gauge at 0 bounds nothing
    g = origin_schedule(1.0, 1.0, 0.5, 1.0, levels=1).levels[0]
    assert g.lower(np.array([0.0])) == 0.0 and g.upper(np.array([0.0]), cells[1][:1]) == np.inf


@pytest.mark.parametrize("schedule_id", ["uniform", "uniform-measurable", "henstock-origin",
                                         "vh-origin"])
@pytest.mark.parametrize("tag_order", ["mid", "left"])
def test_gauge_bounds_keep_every_cousin_cell(schedule_id, tag_order):
    # the bounds settle cells without gauge calls; a bound-less copy calls on every one
    for g in named_schedule(schedule_id, levels=10).levels:
        P = cousin_build(g, tag_order=tag_order)
        bare = cousin_build(Gauge.from_callable(g), tag_order=tag_order)
        for x, y in ((P.a, bare.a), (P.b, bare.b), (P.t, bare.t)):
            assert x.tobytes() == y.tobytes()


# -- pins of the build: its cells, tags and errors --------------------------------

def _cubic(c):
    """A cubic origin branch: delta(0) = 0.03, delta(t) = c t^3, bounded on cells."""
    return Gauge("callable", fn=lambda ts: np.where(ts <= 0.0, 0.03, c * ts * ts * ts),
                 name=f"cubic({c:g})", lower=lambda a: c * a * a * a,
                 upper=lambda a, b: np.where(a > 0.0, c * b * b * b, np.inf))


def _pinned_builds():
    levels = {k: named_schedule(k).levels for k in ("uniform", "henstock-origin", "vh-origin")}
    return {
        "uniform-1": (levels["uniform"][0], "mid"),
        "uniform-12": (levels["uniform"][11], "mid"),
        "step-one": (Gauge.step([0.0, 1.0], [0.01]), "mid"),
        "step-multi": (Gauge.step([0.0, 0.2, 0.55, 0.6, 1.0], [0.05, 0.003, 1e-4, 0.02]), "left"),
        "henstock-origin-12": (levels["henstock-origin"][11], "mid"),
        "vh-origin-12": (levels["vh-origin"][11], "left"),
        "cubic-1e-3": (_cubic(1e-3), "mid"),
        "callable": (Gauge.from_callable(lambda ts: 1e-8 + 1e-4 * np.abs(np.sin(7.0 * ts))), "mid"),
    }


# cells and SHA-256 of the bytes of a, b and t, as the whole-array build gave them
PINNED_BUILDS = {
    "uniform-1": (16, "9edec0dd4324a60bd1a110f98d2530c22aab1f8ea789d2915b3c1a796689b211",
                  "02d6a3839ab1b53196a272b7ab14e30fe00fea18de3d14c0e4dae640758578fa",
                  "ca68f2380e6c984b8e39442838183eb84aeac0c3e258003339610d67a6f1a45b"),
    "uniform-12": (32768, "8cedff4e562eed26e453c89a2b65420d5acc5ecc3dae3de666f0ffe989b016e0",
                   "281c845a8784e00c5fcd05bf59b77ff9aa1a19c2eec33919666942704fa0767f",
                   "29eefb63c7acff9614004854ef72d2fe8ca1e6b6a54a8a051bac285dbc60e776"),
    "step-one": (128, "8e8e12b57dacd06f3d7aa29ac17d71bfc048d769d9a6d06ed36ecfa8f4b4ebcb",
                 "eb7e27356ab21c41babf8c17152efbbc9f61e17bb30496214692248405b70ebd",
                 "367d5f9c60b1a9bed56e4f32999867708671fbc7f16852b810283178628ac90c"),
    "step-multi": (907, "18528b45896a4bc8d99dbf5cbb2a661719ce9ef7bac3047c0f6e5c5d291abf8f",
                   "92352fdb6c05864116a3e8b717d9f60740913259ec55e87d42a66d89e0fedfde",
                   "e830a8349e4186f75efcaef455b61391c0f4e24b73b63ccd284a415120444e75"),
    "henstock-origin-12": (1075912,
                           "966c66f6149c52354230e97d84cb168b1605c4591f21ec7471a2cb86063154be",
                           "4419842e78e02ed999ead2649864dee8d5e0376a3d8c1166f74e01baf6053cb2",
                           "70d67305c81d20dcb27518e0326dd5daa6928ccfdde55713fd12cbfe5d3961cd"),
    "vh-origin-12": (585185, "e61b37b37998e6d426ddb406b61b8ef2476a18912d6c1642b6429e7aae55aa24",
                     "bdc33714ecb41d3cb6afce6ae5d6e10150ef717100ea07caed35582320b01f06",
                     "70ccde876365ec1debc60602426f1f0a1b5b5ad2b6a8300211143ab7e1e39456"),
    "cubic-1e-3": (2889200, "5456219c5ca5dcbced9aa5e92433657a207456ba3e2a33ace064c1e198b2f0a2",
                   "1231c1834571b86e3d05afb001232ece5e9d51dd60b915910acc9f45db2c7af5",
                   "d8b61e88b32db1d36432ac4a8fe20f3a3bb4b2d4848e74c54977af76c766d4c7"),
    "callable": (100320, "f8814e1ac680ae40d64bdb528912ba9ebe638ae794d781c5a1929078a170c047",
                 "8ce2323c5f658d108e5a19f8c42f64cd01729136650cdd73f01ea5ad0da597f2",
                 "2817f7a844033b4de06cd61b569df3bb6b9528dc653794f137b63cdd1bc84ae5"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BUILDS))
def test_cousin_build_keeps_its_pinned_bits(name):
    g, tag_order = _pinned_builds()[name]
    P = cousin_build(g, tag_order=tag_order)
    got = (len(P), *(hashlib.sha256(x.tobytes()).hexdigest() for x in (P.a, P.b, P.t)))
    assert got == PINNED_BUILDS[name]
    assert len(P.codes) == len(P) and P.codes.nbytes == 2 * len(P)


def _deep(depth):
    """A gauge of 1.5 2^-depth at 0.7, growing as |t - 0.7| / 4 away from it: the
    cells about 0.7 bisect down to ``depth``, where they are accepted."""
    return Gauge.from_callable(lambda ts: np.maximum(1.5 * 2.0 ** -depth, np.abs(ts - 0.7) / 4.0))


def _expanded_build(name):
    """(gauge, partition) of a pinned build, or of one that only the expansion property reads:
    the deepest holds cells of depth _MAX_DEPTH, the deepest the build accepts; the stripes'
    blocks hold hundreds of runs of one depth, and deep-0's cells reach depth 60, past 53,
    so their blocks expand by np.cumsum, not by a run's start plus j w."""
    if name == "deepest":
        return _deep(_MAX_DEPTH), cousin_build(_deep(_MAX_DEPTH))
    if name == "stripes":  # depth 15 on even stripes of width 2^-12, 17 on odd ones
        g = Gauge.from_callable(
            lambda ts: np.where(np.floor(ts * 4096.0) % 2.0 == 0.0, 2.0 ** -14.5, 2.0 ** -16.5))
        return g, cousin_build(g)
    if name == "deep-0":
        g = Gauge.from_callable(lambda ts: np.maximum(1.5 * 2.0 ** -60, np.abs(ts) / 4.0))
        return g, cousin_build(g, max_depth=60, tag_order="left")
    g, tag_order = _pinned_builds()[name]
    return g, cousin_build(g, tag_order=tag_order)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["uniform-12", "step-multi", "vh-origin-12", "callable", "deepest",
                        "stripes", "deep-0"]),
       st.one_of(st.just(_ROW_BLOCK), st.integers(0, 2 ** 20)), st.integers(0, 2 ** 16))
def test_row_blocks_expand_to_the_whole_arrays_bits(name, split, length):
    g, P = _expanded_build(name)
    lo, hi = min(split, len(P)), min(split + length, len(P))
    whole = (P.a, P.b, P.t, P.widths)
    for rows in (slice(0, lo), slice(lo, hi), slice(hi, len(P))):
        a, b, tags, w = P.block(rows)
        for x, y in zip((a, b, tags(), w), whole):
            assert x.tobytes() == y[rows].tobytes()
        some = np.arange(len(a))[::7]  # the tags of some of the block's rows alone
        assert tags(some).tobytes() == P.t[rows][some].tobytes()
    if name in ("deepest", "deep-0"):
        depth = 60 if name == "deep-0" else _MAX_DEPTH
        assert P.widths.min() == 2.0 ** -depth and is_delta_fine(P, g, require_perron=True)
    assert tiles(P) and np.all(P.widths == 2.0 ** -(P.codes >> 8).astype(float))


# (str, depth, active_cells) of the DepthExceeded that the whole-depth build raised, by
# schedule (level 12) and (max_depth, cell_budget); the tag order and the gauge's bounds
# change none.  The budgets of 10^5 and more are passed by depths of several runs
PINNED_ERRORS = {
    "henstock-origin": {
        (5, 16): ("active cell count 32 exceeds budget at depth 5", 5, 32),
        (5, 1000): ("no acceptance after depth 5 (64 cells active)", 5, 64),
        (5, 100000): ("no acceptance after depth 5 (64 cells active)", 5, 64),
        (12, 16): ("active cell count 32 exceeds budget at depth 5", 5, 32),
        (12, 1000): ("active cell count 1020 exceeds budget at depth 10", 10, 1020),
        (12, 100000): ("no acceptance after depth 12 (6856 cells active)", 12, 6856),
        (20, 16): ("active cell count 32 exceeds budget at depth 5", 5, 32),
        (20, 1000): ("active cell count 1020 exceeds budget at depth 10", 10, 1020),
        (20, 100000): ("no acceptance after depth 20 (102024 cells active)", 20, 102024),
        (40, 100000): ("active cell count 102024 exceeds budget at depth 21", 21, 102024),
        (40, 300000): ("active cell count 309798 exceeds budget at depth 25", 25, 309798),
    },
    "vh-origin": {
        (5, 16): ("active cell count 32 exceeds budget at depth 5", 5, 32),
        (5, 1000): ("no acceptance after depth 5 (64 cells active)", 5, 64),
        (5, 100000): ("no acceptance after depth 5 (64 cells active)", 5, 64),
        (12, 16): ("active cell count 32 exceeds budget at depth 5", 5, 32),
        (12, 1000): ("active cell count 1008 exceeds budget at depth 10", 10, 1008),
        (12, 100000): ("no acceptance after depth 12 (8064 cells active)", 12, 8064),
        (20, 16): ("active cell count 32 exceeds budget at depth 5", 5, 32),
        (20, 1000): ("active cell count 1008 exceeds budget at depth 10", 10, 1008),
        (20, 100000): ("no acceptance after depth 20 (131070 cells active)", 20, 131070),
        (40, 100000): ("active cell count 131070 exceeds budget at depth 21", 21, 131070),
    },
}


@pytest.mark.parametrize("schedule_id", sorted(PINNED_ERRORS))
@pytest.mark.parametrize("tag_order", ["mid", "left"])
def test_cousin_build_raises_its_pinned_errors(schedule_id, tag_order):
    g = named_schedule(schedule_id).levels[11]
    for gauge in (g, Gauge.from_callable(g)):
        for (max_depth, cell_budget), want in PINNED_ERRORS[schedule_id].items():
            assert _raised(lambda: cousin_build(gauge, max_depth=max_depth, tag_order=tag_order,
                                                cell_budget=cell_budget)) == want


def test_a_gauge_that_turns_non_positive_deep_in_a_build_is_named():
    # positive at every construction probe, negative on a slit about the midpoint of
    # one width-2^-22 cell; that depth holds 2^16 cells, two runs, and the slit is in the second
    lo, hi, slit = 0.25, 0.25 + 2.0 ** -6, 0.25 + 2.0 ** -7 + 2.0 ** -23

    def fn(ts):  # 2^-21 on [lo, hi], growing away from it
        out = 2.0 ** -21 + np.maximum(0.0, np.maximum(lo - ts, ts - hi)) / 4.0
        return np.where(np.abs(ts - slit) < 2.0 ** -30, -1.0, out)

    with pytest.raises(GaugeNotPositive, match=f"^gauge evaluated to -1.0 at t={slit!r}$"):
        cousin_build(Gauge.from_callable(fn))


def test_a_deep_region_in_the_first_run_of_a_failing_build_costs_little():
    # every cell bisects to depth 17, whose 2^17 cells (four runs of 2^15) pass a budget of 10^5;
    # about 0.001, in the first run, cells bisect on to depth 30.  The whole-depth build raised at
    # depth 17 after 1,441,781 gauge points.  The runs raise the same error; beyond those points
    # they evaluate the first three runs' depth-17 cells, one point each, and the deep region
    points = [0]

    def fn(ts):
        points[0] += len(ts)
        return np.minimum(2.0 ** -16.5, np.maximum(1.5 * 2.0 ** -30, np.abs(ts - 0.001) / 4.0))

    g = Gauge.from_callable(fn)
    points[0] = 0
    assert _raised(lambda: cousin_build(g, cell_budget=100_000)) == (
        "active cell count 131072 exceeds budget at depth 17", 17, 131072)
    assert points[0] <= 1_441_781 + 3 * _ROW_BLOCK + 2_000


# -- the bisection budget before a build ------------------------------------------

_CONSTANT_GAUGES = [Gauge.constant, lambda c: Gauge.step([0.0, 1.0], [c])]


def _raised(build):
    with pytest.raises(DepthExceeded) as ei:
        build()
    e = ei.value
    return str(e), e.depth, e.active_cells


@pytest.mark.parametrize("make", _CONSTANT_GAUGES)
@pytest.mark.parametrize("c", [0.3, 2.0 ** -4, 1e-3, 2.0 ** -10, 1e-6])
@pytest.mark.parametrize("limits", [{"cell_budget": 16}, {"cell_budget": 1000},
                                    {"max_depth": 5}, {"max_depth": 12}])
def test_check_budget_raises_as_cousin_build(make, c, limits):
    g = make(c)
    try:
        cousin_build(g, **limits)
    except DepthExceeded:
        assert _raised(lambda: check_budget(g, **limits)) == _raised(
            lambda: cousin_build(g, **limits))
    else:
        check_budget(g, **limits)


@pytest.mark.parametrize("make", _CONSTANT_GAUGES)
def test_check_budget_default_limits(make):
    with pytest.raises(DepthExceeded,
                       match="^active cell count 8388608 exceeds budget at depth 23$"):
        check_budget(make(1e-9))
    check_budget(make(2.0 ** -21))  # 2^22 cells, the budget itself
    with pytest.raises(DepthExceeded, match="at depth 23$"):
        check_budget(make(2.0 ** -22))
    # a hand-built gauge is left to the in-build check
    check_budget(Gauge.from_callable(lambda ts: np.full_like(ts, 1e-9)))


# -- measurable partitions -----------------------------------------------------

def test_measurable_partition_residue_classes():
    mp = measurable_partition(4, interleave_depth=3)
    assert (mp.n_pieces, mp.depth, mp.width) == (4, 3, 0.125)
    # piece r at depth 3 holds cells r and r + 4: piece 0 is [0, 1/8] and [1/2, 5/8]
    np.testing.assert_array_equal(mp.left_edges(), [[0.0, 0.5], [0.125, 0.625],
                                                    [0.25, 0.75], [0.375, 0.875]])


def test_measurable_partition_interleaved_pieces_are_not_intervals():
    mp = measurable_partition(2, interleave_depth=4)
    los = mp.left_edges()[0]
    assert len(los) == 8
    assert np.all(np.diff(los) > mp.width)  # a gap follows every cell
    # a single piece is the whole interval
    one = measurable_partition(1, interleave_depth=4)
    assert one.width == 1.0 and one.left_edges().tolist() == [[0.0]]


def test_measurable_partition_requires_power_of_two():
    with pytest.raises(ValueError):
        measurable_partition(3)


def test_measurable_refinement_chain():
    chain = [measurable_partition(2**l, interleave_depth=3) for l in range(1, 6)]
    for finer, coarser in zip(chain[1:], chain):
        assert finer.refines(coarser)
    assert not chain[0].refines(chain[-1])


def test_measurable_partition_validated():
    with pytest.raises(ValueError):
        MeasurablePartition(3, 2)  # not a power of two
    with pytest.raises(ValueError):
        MeasurablePartition(8, 2)  # more pieces than the 4 cells
    assert MeasurablePartition(4, 2).left_edges().shape == (4, 1)


def _fraction_pieces(n_pieces, interleave_depth):
    """Piece r as exact intervals: cells j = r (mod n) at depth max(log2 n, d)."""
    depth = max(n_pieces.bit_length() - 1, interleave_depth)
    w = Fraction(1, 2**depth)
    return [[(j * w, (j + 1) * w) for j in range(r, 2**depth, n_pieces)]
            for r in range(n_pieces)]


def _refines_oracle(fine, coarse):
    """Each fine piece meets exactly one coarse piece in positive measure.

    Both are partitions of [0, 1], so a fine piece lies inside one coarse
    piece iff it overlaps no other.
    """
    owner = [(lo, hi, r) for r, piece in enumerate(coarse) for lo, hi in piece]
    for piece in fine:
        met = {r for lo, hi in piece for clo, chi, r in owner
               if min(hi, chi) > max(lo, clo)}
        if len(met) != 1:
            return False
    return True


def test_measurable_refines_matches_exact_containment():
    specs = [(n, d) for n in (1, 2, 4, 8, 16, 32) for d in range(7)]
    exact = {spec: _fraction_pieces(*spec) for spec in specs}
    for fs in specs:
        for cs in specs:
            got = measurable_partition(*fs).refines(measurable_partition(*cs))
            assert got == _refines_oracle(exact[fs], exact[cs]), (fs, cs)
