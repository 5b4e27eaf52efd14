from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeset import partitions
from gaugeset.corpus import named_schedule
from gaugeset.errors import DepthExceeded, GaugeNotPositive
from gaugeset.integrators import GaugeSchedule, origin_schedule
from gaugeset.partitions import (
    Gauge,
    MeasurablePartition,
    TaggedPartition,
    check_budget,
    cousin_build,
    is_delta_fine,
    measurable_partition,
)

QUARTERS = np.arange(5) / 4.0  # the edges of four quarter cells


def test_constant_gauge_cousin_four_cells():
    P = cousin_build(Gauge.constant(0.3))
    assert len(P) == 4
    np.testing.assert_allclose(P.t, [0.125, 0.375, 0.625, 0.875])
    assert P.full and P.perron


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


@pytest.mark.parametrize("schedule_id", ["uniform", "uniform-measurable", "henstock-origin",
                                         "vh-origin"])
@pytest.mark.parametrize("tag_order", ["mid", "left"])
def test_warm_build_equals_cold_build(schedule_id, tag_order):
    sched = named_schedule(schedule_id, levels=10)
    assert sched.nested
    prev = None
    for g in sched.levels:
        cold = cousin_build(g, tag_order=tag_order)
        warm = cousin_build(g, tag_order=tag_order, start=prev)
        for x, y in ((cold.a, warm.a), (cold.b, warm.b), (cold.t, warm.t)):
            assert x.tobytes() == y.tobytes()
        prev = warm


def test_hand_built_schedule_is_not_nested():
    g = Gauge.constant(0.1)
    assert not GaugeSchedule((g, g)).nested
    # the sampled check is exact: a growth of one part in 2^50 is rejected
    with pytest.raises(ValueError):
        origin_schedule(1.0, 1.0, 0.1, 1.0 + 2.0 ** -50, levels=3)
    assert origin_schedule(1.0, 1.0, 0.1, 0.5, levels=3).nested


def _raised(build):
    with pytest.raises(DepthExceeded) as ei:
        build()
    e = ei.value
    return str(e), e.depth, e.active_cells


@pytest.mark.parametrize("limits", [{"cell_budget": 20}, {"cell_budget": 200},
                                    {"cell_budget": 2000}, {"max_depth": 3},
                                    {"max_depth": 9}, {"max_depth": 15}])
def test_warm_build_raises_as_cold_build(limits):
    # the start cells lie at depths 5 and 9..19, and each limit trips at a
    # depth some start cells lie below, so the skipped ancestors must count
    levels = named_schedule("henstock-origin", levels=8).levels
    prev = cousin_build(levels[6])
    assert -np.log2(prev.widths.max()) == 5 and -np.log2(prev.widths.min()) == 19
    cold = _raised(lambda: cousin_build(levels[7], **limits))
    assert cold == _raised(lambda: cousin_build(levels[7], start=prev, **limits))


def _raw_builds(monkeypatch, build):
    """The (a, b, t) arrays each cousin_build in ``build()`` hands TaggedPartition."""
    raw = []

    def record(a, b, t):
        raw.append((a.copy(), b.copy(), t.copy()))
        return TaggedPartition(a, b, t)

    monkeypatch.setattr(partitions, "TaggedPartition", record)
    build()
    monkeypatch.undo()
    return raw


@pytest.mark.parametrize("schedule_id", ["uniform", "henstock-origin", "vh-origin"])
@pytest.mark.parametrize("tag_order", ["mid", "left"])
def test_cousin_build_emits_each_depth_in_order(monkeypatch, schedule_id, tag_order):
    levels = named_schedule(schedule_id, levels=9).levels
    cold = _raw_builds(monkeypatch, lambda: [cousin_build(g, tag_order=tag_order)
                                             for g in levels])
    warm = []

    def warm_builds():
        prev = None
        for g in levels:
            prev = cousin_build(g, tag_order=tag_order, start=prev)

    warm = _raw_builds(monkeypatch, warm_builds)
    assert len(cold) == len(warm) == len(levels)
    for (a, b, t), got in zip(cold, warm):
        # the same arrays, row for row, from [0, 1] and from the previous level
        for x, y in zip((a, b, t), got):
            assert x.tobytes() == y.tobytes()
        # one run per depth, coarsest first, each increasing
        dw, da = np.diff(b - a), np.diff(a)
        assert np.all(dw <= 0) and np.all(da[dw == 0] > 0)


def test_warm_build_rejects_non_dyadic_start():
    P = TaggedPartition(np.array([0.0, 0.3]), np.array([0.3, 1.0]), np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        cousin_build(Gauge.constant(0.1), start=P)


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
    assert not P.full
    w = 2.0 ** -40
    P = TaggedPartition(np.array([0.0, 0.5, 0.5 + w]), np.array([0.5, 0.5 + w, 1.0]),
                        np.array([0.25, 0.5, 0.75]))
    assert P.full


def test_partition_sorts_only_out_of_order_input():
    a, b, t = QUARTERS[:-1], QUARTERS[1:], QUARTERS[:-1] + 0.125
    P = TaggedPartition(a, b, t)
    order = np.array([2, 0, 3, 1])
    Q = TaggedPartition(a[order], b[order], t[order])
    for x, y, z in ((P.a, Q.a, a), (P.b, Q.b, b), (P.t, Q.t, t)):
        assert np.array_equal(x, z) and np.array_equal(y, z)
        assert x is not z and not x.flags.writeable  # an own, frozen copy
    assert P.full and Q.full


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
    assert P.full
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
    prev = bare = None
    for n, g in enumerate(named_schedule(schedule_id, levels=10).levels, start=1):
        prev = cousin_build(g, tag_order=tag_order, start=prev)
        bare = cousin_build(Gauge.from_callable(g), tag_order=tag_order, start=bare)
        for x, y in ((prev.a, bare.a), (prev.b, bare.b), (prev.t, bare.t)):
            assert x.tobytes() == y.tobytes()


# -- the bisection budget before a build ------------------------------------------

_CONSTANT_GAUGES = [Gauge.constant, lambda c: Gauge.step([0.0, 1.0], [c])]


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
