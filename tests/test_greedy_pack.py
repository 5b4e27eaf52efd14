"""variational_measure_estimate against the scalar greedy packing, bit for bit.

The oracle below is the restart loop that packed one item per Python step:
each of the 16 restarts of a level walks the set alone, with its own
default_rng([seed, 55, n, r]) and one gauge call per tag.  The library walks
each restart through a component with one accumulate under a constant
gauge of at least 1e-12, points included, and one step at a time under any
other, so every estimate must equal the oracle's exactly, and the guard must
stop the same components short.  A level the guard cuts short has no estimate:
variational_measure_estimate raises PackingTruncated.
"""

import numpy as np
import pytest

from gaugeset import corpus
from gaugeset import integrators as it
from gaugeset.errors import PackingTruncated
from gaugeset.integrators import (
    GaugeSchedule,
    check_packing,
    normalize_set,
    variational_measure_estimate,
)
from gaugeset.partitions import Gauge


def _greedy_pack_value(phi, comps, gauge, rng):
    """One packing's value, the components its guard stopped it in before their end,
    and those where its t stopped advancing."""
    items_a, items_b, cut, stop = [], [], [], []
    cursor = 0.0
    for i, (lo, hi) in enumerate(comps):
        t = max(lo, cursor)
        if t > hi and lo < hi:
            continue
        if lo == hi:  # single admissible tag
            if lo < cursor:
                continue
            t = lo
            dt = float(gauge(t))
            f = rng.uniform(0.8, 0.98)
            L = max(cursor, t - f * dt)
            R = min(1.0, t + f * dt)
            if R > L:
                items_a.append(L)
                items_b.append(R)
                cursor = R
            continue
        guard = 0
        while t <= hi and guard < it._PACK_MAX_ITEMS:
            guard += 1
            dt = float(gauge(t))
            f = rng.uniform(0.8, 0.98)
            L = max(cursor, t - f * dt)
            R = min(1.0, t + f * dt)
            if R <= L:
                t = min(hi, t + max(dt, 1e-12))
                if t >= hi:
                    break
                continue
            items_a.append(L)
            items_b.append(R)
            cursor = R
            if R >= hi:
                break
            step = float(gauge(cursor)) * rng.uniform(0.5, 0.9)
            t_next = min(hi, cursor + step)
            if t_next <= t:
                stop.append(i)
                break
            t = t_next
        else:  # t <= hi throughout, so the guard ended the walk
            cut.append(i)
    if not items_a:
        return 0.0, cut, stop
    V = phi.query_batch(np.asarray(items_a), np.asarray(items_b))
    return it._fsum(it._row_max(np.abs(V))), cut, stop


def oracle_levels(phi, E, schedule, seed):
    """Per level: the best packing value, the components any restart was cut in,
    and those where any restart's t stopped."""
    comps = normalize_set(E)
    levels = []
    for n, gauge in enumerate(schedule.levels, start=1):
        best, cut, stop = 0.0, set(), set()
        for r in range(it._PACK_RESTARTS):
            rng = np.random.default_rng([seed, 55, n, r])
            value, lane_cut, lane_stop = _greedy_pack_value(phi, comps, gauge, rng)
            best = max(best, value)
            cut.update(lane_cut)
            stop.update(lane_stop)
        levels.append((best, sorted(cut), sorted(stop)))
    return levels


def oracle_estimates(phi, E, schedule, seed):
    return [best for best, _, _ in oracle_levels(phi, E, schedule, seed)]


def assert_packing_equals_oracle(phi, E, schedule, seed):
    """_pack_values level by level equals the oracle, guard cuts and stops included.

    variational_measure_estimate then gives the oracle's estimates, or
    raises PackingTruncated when some level was cut or stopped short.
    """
    want = oracle_levels(phi, E, schedule, seed)
    comps = normalize_set(E)
    got = []
    for n, gauge in enumerate(schedule.levels, start=1):
        rngs = [np.random.default_rng([seed, 55, n, r]) for r in range(it._PACK_RESTARTS)]
        values, cut, stop = it._pack_values(phi, comps, gauge, rngs)
        got.append((max(0.0, *values), cut, stop))
    assert got == want
    cut_levels = [n for n, (_, cut, stop) in enumerate(want, start=1) if cut or stop]
    if cut_levels:
        with pytest.raises(PackingTruncated) as exc:
            variational_measure_estimate(phi, E, schedule, seed=seed)
        # the first cut level, or a later one that check_packing flags before level 1
        assert exc.value.level in cut_levels
    else:
        got = variational_measure_estimate(phi, E, schedule, seed=seed)["estimates"]
        assert got == [best for best, _, _ in want]
    return cut_levels


def _phi(entry):
    return corpus.corpus_get(entry).exact_primitive()


SETS = {
    "points": {"points": [0.0, 0.25, 0.5, 0.75, 1.0]},
    "close-points": [0.3, 0.3 + 1e-3, 0.3 + 2e-3, 0.9],
    "interval": (0.25, 0.75),
    "whole": (0.0, 1.0),
    "mixed": [0.1, (0.2, 0.4), 0.45, (0.6, 0.65), 1.0],
    # after clipping these touch, overlap or nest, and a point sits inside
    "overlapping": {"intervals": [(-0.5, 0.2), (0.1, 0.3), (0.3, 0.5), (0.35, 0.4),
                                  (0.9, 1.7)],
                    "points": [0.05, 0.3, 1.0]},
    "outside": [1.5, (-0.5, -0.2), (1.1, 2.0)],
}


@pytest.mark.parametrize("set_name", sorted(SETS))
@pytest.mark.parametrize("entry, sched_id, levels, seed", [
    ("G6", "uniform", 5, 0), ("G2", "uniform", 5, 3),
    ("G1", "vh-origin", 2, 0), ("G4", "vh-origin", 2, 5),
])
def test_estimates_equal_scalar_oracle(entry, sched_id, levels, seed, set_name):
    phi, E = _phi(entry), SETS[set_name]
    sched = corpus.named_schedule(sched_id, levels=levels)
    got = variational_measure_estimate(phi, E, sched, seed=seed)["estimates"]
    assert got == oracle_estimates(phi, E, sched, seed)


def test_tiny_gauge_takes_the_empty_item_path(monkeypatch):
    # at 1e-17, t +- f dt rounds to t away from 0: items come out empty and t
    # moves on by 1e-12, so the guard ends the interval components
    monkeypatch.setattr(it, "_PACK_MAX_ITEMS", 50)
    sched = GaugeSchedule((Gauge.constant(1e-17),))
    phi = _phi("G2")
    for E in ([0.5, (0.6, 0.6 + 1e-10), (0.0, 0.3)], (0.25, 0.75), [0.0, 0.5]):
        cut_levels = assert_packing_equals_oracle(phi, E, sched, 1)
        assert cut_levels == ([] if E == [0.0, 0.5] else [1])


@pytest.mark.parametrize("E", [
    # empty items move t by 1e-12: the guard ends the first component, or t
    # reaches its end after 20 steps; either way the draws it took shift
    # every item of the next one
    [(0.45, 0.45 + 1e-10), (0.7, 0.9)],
    [(0.45, 0.45 + 2e-11), (0.7, 0.9)],
    # at t = 0.5, t + f dt rounds to t but t - f dt does not: the item
    # [0.5 - ulp/2, 0.5] is kept, the next tag rounds back to 0.5, and the
    # lane stops short because t did not advance: the level is an error
    [(0.5, 0.55), (0.7, 0.9)],
])
def test_rounding_paths_alike(monkeypatch, E):
    monkeypatch.setattr(it, "_PACK_MAX_ITEMS", 50)
    # f dt is below half an ulp of t on [0.4, 0.48) and between half an ulp
    # and one ulp below 0.5 on [0.48, 0.6)
    tiny = Gauge.step([0.0, 0.4, 0.48, 0.6, 1.0], [0.01, 1e-17, 5e-17, 0.01])
    sched = GaugeSchedule((tiny,))
    assert_packing_equals_oracle(_phi("G2"), E, sched, 6)


@pytest.mark.parametrize("max_items", [1, 3, 40])
def test_guard_fires_alike(monkeypatch, max_items):
    monkeypatch.setattr(it, "_PACK_MAX_ITEMS", max_items)
    phi, E = _phi("G2"), SETS["mixed"]
    sched = corpus.named_schedule("uniform", levels=6)
    cut_levels = assert_packing_equals_oracle(phi, E, sched, 2)
    assert bool(cut_levels) == (max_items < 40)  # 40 steps walk every component


def test_draw_blocks_refill_alike(monkeypatch):
    # blocks far shorter than a packing's draws refill many times per level
    monkeypatch.setattr(it, "_PACK_DRAW_BLOCK", 3)
    phi, E = _phi("G4"), SETS["mixed"]
    sched = corpus.named_schedule("uniform", levels=5)
    got = variational_measure_estimate(phi, E, sched, seed=4)["estimates"]
    assert got == oracle_estimates(phi, E, sched, 4)


def test_empty_set_gives_zero_estimates():
    sched = corpus.named_schedule("uniform", levels=2)
    vm = variational_measure_estimate(_phi("G6"), SETS["outside"], sched, seed=0)
    assert vm["set"] == [] and vm["estimates"] == [0.0, 0.0]


@pytest.mark.parametrize("max_items", [5, 40, 400])
@pytest.mark.parametrize("E", [(0.25, 0.75), [(0.0, 0.1), (0.05, 0.6)], [0.2, (0.3, 0.35)]])
def test_check_packing_flags_only_levels_the_guard_cuts(monkeypatch, max_items, E):
    # a level check_packing flags is cut by the walk itself
    monkeypatch.setattr(it, "_PACK_MAX_ITEMS", max_items)
    comps = normalize_set(E)
    phi = _phi("G2")
    flagged = 0
    for n in range(1, 13):
        gauge = Gauge.constant(0.25 / 2.0 ** n)
        sched = GaugeSchedule((gauge,))
        try:
            check_packing(E, sched)
        except PackingTruncated:
            flagged += 1
            rngs = [np.random.default_rng([0, 55, 1, r]) for r in range(it._PACK_RESTARTS)]
            _, cut, _ = it._pack_values(phi, comps, gauge, rngs)
            assert cut
    assert flagged  # the finest levels are flagged for every set here


def test_guard_truncation_is_raised_not_reported():
    # G2 on [0.25, 0.75]: 2 * 200000 * delta_18 < 0.5 < 2 * 200000 * delta_17
    phi = _phi("G2")
    check_packing((0.25, 0.75), corpus.named_schedule("uniform", levels=17))
    with pytest.raises(PackingTruncated, match="level 18: a greedy packing of "
                                               r"\[0.25, 0.75\] cannot reach its end") as exc:
        variational_measure_estimate(phi, (0.25, 0.75),
                                     corpus.named_schedule("uniform", levels=18))
    assert exc.value.level == 18


SHORT = (0.5, 0.5 + 1e-10)  # crossed in no fewer than 50 steps of at most 2e-12


@pytest.mark.parametrize("delta", [9e-13, 1e-13, 1e-15, 2.0 ** -52])
def test_check_packing_decides_constant_gauges_below_1e_12(monkeypatch, delta):
    # a step moves t forward by at most 2 max(delta, 1e-12), so 40 steps stop short
    monkeypatch.setattr(it, "_PACK_MAX_ITEMS", 40)
    gauge = Gauge.constant(delta)
    with pytest.raises(PackingTruncated, match=r"\[0.5, 0.5000000001\] cannot reach its end"):
        check_packing(SHORT, GaugeSchedule((gauge,)))
    rngs = [np.random.default_rng([0, 55, 1, r]) for r in range(it._PACK_RESTARTS)]
    assert it._pack_values(_phi("G2"), normalize_set(SHORT), gauge, rngs)[1] == [0]


def test_check_packing_leaves_gauges_below_2_to_the_minus_52_to_the_walk(monkeypatch):
    # at 0.5, 4e-17 is under half an ulp: a kept item ends at t and the next
    # tag rounds back to t, so the lane leaves [0.5, 0.5000000001] uncut
    monkeypatch.setattr(it, "_PACK_MAX_ITEMS", 40)
    gauge = Gauge.constant(4e-17)
    check_packing(SHORT, GaugeSchedule((gauge,)))
    rngs = [np.random.default_rng([0, 55, 1, r]) for r in range(it._PACK_RESTARTS)]
    assert it._pack_values(_phi("G2"), normalize_set(SHORT), gauge, rngs)[1] == []


def test_a_lane_whose_t_stops_is_reported_stopped_short():
    # at 0.5, 4e-17 is under half an ulp: a kept item ends at t and the next
    # tag rounds back to t.  The lane stops there, and says so
    rng = np.random.default_rng([0, 55, 1, 0])
    (a, b), cut, stop = it._lane_walk([(0.5, 0.5 + 1e-10)], Gauge.constant(4e-17), rng)
    assert cut == [] and stop == [0] and len(a) == len(b) == 1
    with pytest.raises(PackingTruncated, match=r"^level 1: a greedy packing of \[0.5, "
                       r"0.5000000001\] stopped short: its gauge no longer moves t forward$"):
        variational_measure_estimate(_phi("G2"), SHORT, GaugeSchedule((Gauge.constant(4e-17),)))


def test_a_cut_walk_names_its_component_by_repr(monkeypatch):
    # a gauge with no constant is left to the walk; "{:g}" printed [0.5, 0.5]
    monkeypatch.setattr(it, "_PACK_MAX_ITEMS", 5)
    gauge = Gauge.from_callable(lambda ts: np.full(len(ts), 1e-12))
    with pytest.raises(PackingTruncated, match=r"level 1: a greedy packing of "
                                               r"\[0.5, 0.5000000001\] took 5 steps") as exc:
        variational_measure_estimate(_phi("G2"), SHORT, GaugeSchedule((gauge,)))
    assert exc.value.level == 1


@pytest.mark.parametrize("E", [[float("nan")], [(0.2, float("nan"))],
                               {"intervals": [(float("nan"), 0.5)]}])
def test_nan_endpoint_is_rejected_not_clipped(E):
    # max(0.0, nan) is 0.0 and min(1.0, nan) is 1.0, so a NaN would read as a clip bound
    with pytest.raises(ValueError, match="NaN endpoint"):
        normalize_set(E)


@pytest.mark.parametrize("E, comps", [
    ([(0.25, 0.5), (0.4, 0.75)], [(0.25, 0.75)]),
    ([(0.2, 0.4), (0.4, 0.6), 0.6, 0.9], [(0.2, 0.6), (0.9, 0.9)]),
    ([0.3, (0.1, 0.5), 0.3, (-1.0, 0.05)], [(0.0, 0.05), (0.1, 0.5)]),
    ([(0.0, 0.8), (0.2, 1.0)], [(0.0, 1.0)]),
])
def test_overlapping_or_touching_components_are_merged(E, comps):
    assert normalize_set(E) == comps


def test_two_spellings_of_a_set_have_one_variational_measure():
    phi, sched = _phi("G2"), corpus.named_schedule("uniform", levels=4)
    assert (variational_measure_estimate(phi, [(0.25, 0.5), (0.4, 0.75)], sched)
            == variational_measure_estimate(phi, (0.25, 0.75), sched))


def test_variational_measure_rejects_nan_set():
    sched = corpus.named_schedule("uniform", levels=2)
    with pytest.raises(ValueError, match=r"\(0.2, nan\)"):
        variational_measure_estimate(_phi("G2"), [(0.2, float("nan"))], sched)


# constant gauges: each lane walks a component with one accumulate
CONST_GAUGES = {
    "const": Gauge.constant(0.01),
    "coarse": Gauge.constant(0.3),
    "one-piece-step": Gauge.step([0.0, 1.0], [0.0137]),
}
# the walk through the first component reaches 1, so the point 1 sees a cursor at 1
SETS_TO_ONE = {**SETS, "to-one": [(0.5, 1.0 - 1e-9), 1.0]}


@pytest.mark.parametrize("set_name", sorted(SETS_TO_ONE))
@pytest.mark.parametrize("gauge_name", sorted(CONST_GAUGES))
def test_accumulate_walk_equals_lockstep_and_scalar_oracle(gauge_name, set_name):
    gauge, E = CONST_GAUGES[gauge_name], SETS_TO_ONE[set_name]
    assert gauge.const is not None
    phi = _phi("G2")
    assert_packing_equals_oracle(phi, E, GaugeSchedule((gauge,)), 7)
    # the same widths with no const are walked one lane and one step at a time
    plain = Gauge.from_callable(lambda ts, c=gauge.const: np.full_like(ts, c))
    rngs = lambda: [np.random.default_rng([7, 55, 1, r]) for r in range(it._PACK_RESTARTS)]
    comps = normalize_set(E)
    assert it._pack_values(phi, comps, gauge, rngs()) == it._pack_values(phi, comps, plain, rngs())


@pytest.mark.parametrize("walk_steps", [2, 8192])
@pytest.mark.parametrize("max_items", range(1, 13))
def test_accumulate_walk_guard_at_every_step_count(monkeypatch, max_items, walk_steps):
    # each of the 16 walks of the first component takes 9 steps of 0.04: at
    # 9 it ends on the guard's last step, below 9 the guard cuts it
    monkeypatch.setattr(it, "_PACK_MAX_ITEMS", max_items)
    monkeypatch.setattr(it, "_PACK_WALK_STEPS", walk_steps)
    sched = GaugeSchedule((Gauge.constant(0.04),))
    cut_levels = assert_packing_equals_oracle(_phi("G4"), [(0.25, 0.75), 0.8, (0.85, 0.95)],
                                              sched, 2)
    assert bool(cut_levels) == (max_items < 9)


def test_accumulate_walk_at_the_smallest_constant_gauge(monkeypatch):
    # 1e-12 is the smallest constant gauge walked by accumulation; the guard cuts
    # every interval component, and a point is one step
    monkeypatch.setattr(it, "_PACK_MAX_ITEMS", 50)
    sched = GaugeSchedule((Gauge.constant(1e-12),))
    cut_levels = assert_packing_equals_oracle(_phi("G2"), SETS["mixed"], sched, 3)
    assert cut_levels == [1]


@pytest.mark.parametrize("walk_steps", [1, 2, 5])
def test_accumulate_walk_in_short_blocks(monkeypatch, walk_steps):
    # a lane that does not end a component within one block goes on from there
    monkeypatch.setattr(it, "_PACK_WALK_STEPS", walk_steps)
    sched = corpus.named_schedule("uniform", levels=4)
    for E in SETS_TO_ONE.values():
        assert_packing_equals_oracle(_phi("G2"), E, sched, 5)


# sets of many points, each one step per lane, taken by the accumulate walk
POINT_SETS = {
    "200-points": list(np.linspace(0.001, 0.999, 200)),
    # closer than one step, so most lanes pass most points by
    "dense-points": list(0.5 + 1e-3 * np.arange(40)),
    # a walk ends at 1 before the last point; points lead into an interval
    "points-and-intervals": [*np.linspace(0.05, 0.3, 30), (0.4, 0.6), 0.6 + 1e-4,
                             (0.7, 1.0), 1.0],
}


@pytest.mark.parametrize("set_name", sorted(POINT_SETS))
@pytest.mark.parametrize("gauge_name", sorted(CONST_GAUGES))
def test_point_components_equal_lockstep_and_scalar_oracle(gauge_name, set_name):
    gauge, E = CONST_GAUGES[gauge_name], POINT_SETS[set_name]
    phi = _phi("G2")
    assert_packing_equals_oracle(phi, E, GaugeSchedule((gauge,)), 11)
    # the same widths with no const are walked one lane and one step at a time
    plain = Gauge.from_callable(lambda ts, c=gauge.const: np.full_like(ts, c))
    rngs = lambda: [np.random.default_rng([11, 55, 1, r]) for r in range(it._PACK_RESTARTS)]
    comps = normalize_set(E)
    assert it._pack_values(phi, comps, gauge, rngs()) == it._pack_values(phi, comps, plain, rngs())
