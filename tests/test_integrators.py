import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from gaugeset import corpus
from gaugeset.cli import main
from gaugeset.convex_sets import DirectionGrid, hausdorff, make_interval
from gaugeset.corpus import SIN_1
from gaugeset.decomposition import Selection, singleton_of
from gaugeset.integrators import (
    DIVERGENCE_BOUND,
    GaugeSchedule,
    birkhoff_integrate,
    build_primitive,
    directional_profile,
    henstock_integrate,
    mcshane_integrate,
    origin_schedule,
    scalar_hk,
    uniform_schedule,
    variational_measure_estimate,
    vh_check,
    _tree_sum_columns,
)
from gaugeset.partitions import Gauge

UNIFORM12 = corpus.named_schedule("uniform", levels=12)
LINE = DirectionGrid.line()


def abs_derivative_singleton():
    sel = Selection(
        name="abs-derivative", d=1,
        eval_points=lambda ts: corpus.abs_F_prime(ts)[:, None],
    )
    return singleton_of(sel, LINE)


# -- schedules -------------------------------------------------------------

def test_schedule_rejects_nonmonotone():
    with pytest.raises(ValueError):
        GaugeSchedule((Gauge.constant(0.1), Gauge.constant(0.2)))


def test_schedule_check_is_exact():
    # an increase far below the old 1e-12 slack
    with pytest.raises(ValueError):
        GaugeSchedule((Gauge.constant(1e-13), Gauge.constant(5e-13)))
    GaugeSchedule((Gauge.constant(5e-13), Gauge.constant(5e-13)))


def test_schedule_rejects_empty():
    with pytest.raises(ValueError):
        GaugeSchedule(())


def test_uniform_schedule_widths():
    s = uniform_schedule(base=0.25, levels=4)
    np.testing.assert_allclose([g(0.5) for g in s.levels],
                               [0.125, 0.0625, 0.03125, 0.015625])


def test_origin_schedule_two_branches():
    s = origin_schedule(h0=1.0, h_factor=0.5, c0=0.1, c_factor=0.5, levels=3)
    g2 = s.levels[1]
    assert g2(0.0) == 0.25  # h0 * h_factor^2
    assert g2(0.5) == pytest.approx(0.1 * 0.25 * 0.25)  # c_2 * t^2
    assert s.describe()["levels"] == 3


# -- one-level nominal sums ---------------------------------------------------

def one_level(gauge):
    """A one-level run's estimate is the nominal Riemann sum at the build tags."""
    return GaugeSchedule((gauge,))


def test_one_level_henstock_constant_set_is_exact():
    # the t^2 branch of the origin gauge gives 39 cells of six widths, 2^-8 to 2^-3
    gauge = origin_schedule(0.5, 0.5, 0.25, 1.0, levels=1).levels[0]
    rep = henstock_integrate(corpus.corpus_get("G6"), one_level(gauge), tol=1e-4, seed=0)
    assert rep.levels[0].n_items == 39
    assert rep.estimate_values == (0.0, 1.0)


def test_one_level_henstock_matches_hand_computation():
    spec = corpus.corpus_get("G2")  # [0, t]
    # width 1/2 is the first below 0.6: cells [0, 1/2], [1/2, 1] tagged 0.25, 0.75
    rep = henstock_integrate(spec, one_level(Gauge.constant(0.6)), tol=1e-4, seed=0)
    assert rep.levels[0].n_items == 2
    assert rep.estimate_values == (0.0, 0.5 * 0.25 + 0.5 * 0.75)


def test_tree_sum_columns_matches_fsum():
    rng = np.random.default_rng(11)
    X = rng.normal(scale=1e6, size=(1537, 3)) + rng.normal(size=(1537, 3))
    got = _tree_sum_columns(X)
    want = np.array([math.fsum(X[:, j].tolist()) for j in range(3)])
    scale = np.abs(X).sum(axis=0)
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


# -- convergent integrals ------------------------------------------------------

def test_henstock_g2_exact_endpoints():
    rep = henstock_integrate(corpus.corpus_get("G2"), UNIFORM12, tol=1e-4, seed=0)
    assert rep.verdict == "converged"
    assert rep.estimate_values == (0.0, 0.5)
    assert rep.divergence is None


def test_henstock_g6_bit_exact():
    """Dyadic widths and fsum make the constant-interval estimate exact."""
    rep = henstock_integrate(corpus.corpus_get("G6"), UNIFORM12, tol=1e-4, seed=0)
    assert rep.verdict == "converged"
    assert rep.estimate_values == (0.0, 1.0)


def test_mcshane_g2_converges_free_tags():
    rep = mcshane_integrate(corpus.corpus_get("G2"), UNIFORM12, tol=1e-4, seed=0)
    assert rep.verdict == "converged"
    assert abs(rep.estimate_values[1] - 0.5) < 1e-4
    assert rep.method == "mcshane-plain"


def test_mcshane_mode_follows_schedule(tmp_path):
    g2 = corpus.corpus_get("G2")
    rep = mcshane_integrate(g2, UNIFORM12, tol=1e-4, seed=0)
    assert (rep.method, rep.flags["mode"]) == ("mcshane-plain", "plain")

    sched = corpus.named_schedule("uniform-measurable", levels=10)
    assert sched.measurable
    rep = mcshane_integrate(g2, sched, tol=1e-3, seed=0)
    assert (rep.method, rep.flags["mode"]) == ("mcshane-measurable", "measurable")
    assert rep.verdict == "converged"

    # a callable last level makes the whole schedule plain
    steps = tuple(Gauge.step([0.0, 1.0], [0.25 / 2.0 ** n]) for n in (1, 2))
    mixed = GaugeSchedule(steps + (Gauge.constant(0.25 / 8.0),))
    assert not mixed.measurable
    rep = mcshane_integrate(corpus.corpus_get("G6"), mixed, tol=1e-4, seed=0)
    assert (rep.method, rep.flags["mode"]) == ("mcshane-plain", "plain")

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "settings": {
        "method": "mcshane", "schedule": "uniform-measurable", "levels": 4}}))
    res = CliRunner().invoke(main, ["integrate", "G6", "--config", str(cfg),
                                    "--out", str(tmp_path), "--deterministic"])
    assert res.exit_code == 0, res.output
    with open(tmp_path / "integrate-G6-mcshane-s0.json") as fh:
        out = json.load(fh)
    assert (out["method"], out["flags"]["mode"]) == ("mcshane-measurable", "measurable")
    assert out["schedule"] == {"name": "measurable-uniform(0.25,L4)", "levels": 4}


@pytest.fixture(scope="module")
def g1_henstock_tuned():
    spec = corpus.corpus_get("G1")
    sched = corpus.named_schedule("henstock-origin", levels=12)
    return henstock_integrate(spec, sched, tol=1e-3, seed=0)


def test_henstock_g1_hits_truth(g1_henstock_tuned):
    rep = g1_henstock_tuned
    assert rep.verdict == "converged"
    truth = make_interval(SIN_1, 1.0 + SIN_1)
    assert hausdorff(rep.estimate, truth) < 1e-3


def test_henstock_g1_levels_within_budget(g1_henstock_tuned):
    assert len(g1_henstock_tuned.levels) <= 12
    last = g1_henstock_tuned.levels[-1]
    assert last.eff_residual < 1e-3


def test_scalar_hk_linear_function():
    rep = scalar_hk(lambda ts: ts, uniform_schedule(levels=12), tol=1e-4, seed=0)
    assert rep.verdict == "converged"
    assert rep.value == pytest.approx(0.5, abs=1e-12)
    assert rep.scalar is True


def test_scalar_hk_singular_derivative():
    sched = corpus.named_schedule("henstock-origin", levels=12)
    rep = scalar_hk(corpus.F_prime, sched, tol=1e-3, seed=0)
    assert rep.verdict == "converged"
    assert abs(rep.value - SIN_1) < 1e-3


# -- divergence ---------------------------------------------------------------

def test_mcshane_g1_diverges():
    rep = mcshane_integrate(corpus.corpus_get("G1"), UNIFORM12, tol=1e-3, seed=0)
    assert rep.verdict == "diverged"
    assert rep.divergence["bound"] == DIVERGENCE_BOUND
    assert rep.divergence["level"] == 1
    assert "+1" in rep.divergence["directions"]


def test_henstock_g3_diverges_under_uniform_gauges():
    rep = henstock_integrate(corpus.corpus_get("G3"), UNIFORM12, tol=1e-3, seed=0)
    assert rep.verdict == "diverged"
    assert rep.divergence["directions"]  # at least one direction fired


def test_mcshane_abs_derivative_diverges():
    rep = mcshane_integrate(abs_derivative_singleton(), UNIFORM12, tol=1e-3, seed=0)
    assert rep.verdict == "diverged"


def test_divergence_stops_early():
    rep = mcshane_integrate(corpus.corpus_get("G1"), UNIFORM12, tol=1e-3, seed=0)
    assert len(rep.levels) < 12  # early exit once the bound fires


# -- directional profiles -------------------------------------------------------

def test_profile_g4_consistent():
    sched = corpus.named_schedule("uniform", levels=10)
    prof = directional_profile(corpus.corpus_get("G4"), sched, tol=1e-3, seed=0)
    assert prof.verdict == "hkp-consistent"
    assert prof.per_direction["n_converged"] == 64
    assert prof.per_direction["divergent"] == []


def test_profile_g3_flags_plus_direction():
    prof = directional_profile(corpus.corpus_get("G3"), UNIFORM12, tol=1e-3, seed=0)
    assert prof.verdict == "not-hkp"
    assert "+1" in prof.per_direction["divergent"]


# -- birkhoff -------------------------------------------------------------------

PARTS14 = corpus.named_parts("dyadic-14")


def test_birkhoff_g6_bit_exact_and_permutation_invariant():
    rep = birkhoff_integrate(corpus.corpus_get("G6"), PARTS14, tol=1e-4, seed=0)
    assert rep.verdict == "converged"
    assert rep.estimate_values == (0.0, 1.0)
    assert rep.flags["permutation_bit_exact"] is True
    assert rep.flags["sup_approximate"] is True


def test_birkhoff_g2_converges():
    rep = birkhoff_integrate(corpus.corpus_get("G2"), PARTS14, tol=1e-4, seed=0)
    assert rep.verdict == "converged"
    assert abs(rep.estimate_values[1] - 0.5) < 1e-4


def test_birkhoff_g1_adversarial_tags_fire():
    rep = birkhoff_integrate(corpus.corpus_get("G1"), PARTS14, tol=1e-3, seed=0)
    assert rep.verdict == "diverged"
    assert rep.divergence["level"] == 1


def test_birkhoff_abs_derivative_diverges():
    rep = birkhoff_integrate(abs_derivative_singleton(), PARTS14, tol=1e-3, seed=0)
    assert rep.verdict == "diverged"


def test_birkhoff_report_names_its_partition_chain():
    rep = birkhoff_integrate(corpus.corpus_get("G6"), PARTS14, tol=1e-4, seed=0)
    assert rep.schedule == {"name": "birkhoff-parts(L14)", "levels": 14}
    assert rep.report_id.endswith(":L14")


def test_birkhoff_requires_refining_chain():
    bad = [{"n_pieces": 4, "interleave_depth": 3},
           {"n_pieces": 2, "interleave_depth": 3}]  # coarsens instead
    with pytest.raises(ValueError):
        birkhoff_integrate(corpus.corpus_get("G6"), bad, tol=1e-4, seed=0)


def test_birkhoff_rejects_chain_that_only_refines_at_midpoints():
    # level 1 pieces are the cells {0, 2} and {1, 3} of width 1/4; level 2
    # pieces are [0, 1/2] and [1/2, 1], whose midpoints 1/4 and 3/4 both
    # fall in level 1's first piece though neither lies inside one piece
    bad = [{"n_pieces": 2, "interleave_depth": 2},
           {"n_pieces": 2, "interleave_depth": 0}]
    with pytest.raises(ValueError):
        birkhoff_integrate(corpus.corpus_get("G6"), bad, tol=1e-4, seed=0)


# -- variational checks -----------------------------------------------------------

def test_vh_g2_converges_both_modes_with_halving():
    spec = corpus.corpus_get("G2")
    phi = spec.exact_primitive()
    sched = corpus.named_schedule("uniform", levels=10)
    for mode in ("perron", "free"):
        rep = vh_check(spec, phi, sched, tol=1e-4, seed=0, mode=mode)
        assert rep.verdict == "converged", mode
        sums = [st.eff_residual for st in rep.levels]
        ratios = [sums[i + 1] / sums[i] for i in range(4, len(sums) - 1)]
        assert all(0.45 <= r <= 0.55 for r in ratios), (mode, ratios)


def test_vh_method_names_and_flags():
    spec = corpus.corpus_get("G2")
    phi = spec.exact_primitive()
    sched = corpus.named_schedule("uniform", levels=6)
    rep_p = vh_check(spec, phi, sched, tol=1e-2, seed=0, mode="perron")
    rep_f = vh_check(spec, phi, sched, tol=1e-2, seed=0, mode="free")
    assert rep_p.method == "vh" and rep_f.method == "vms"
    assert rep_p.flags["mode"] == "perron"
    assert rep_f.flags["mode"] == "free"


def test_vms_g1_free_tags_diverge():
    spec = corpus.corpus_get("G1")
    phi = spec.exact_primitive()
    rep = vh_check(spec, phi, UNIFORM12, tol=5e-2, seed=0, mode="free")
    assert rep.verdict == "diverged"


class _OnesPrimitive:
    """Primitive whose every cell value is the support vector (1, 1)."""

    def query_batch(self, a, b):
        return np.ones((len(a), 2))


def test_vh_growth_divergence_has_common_record():
    # every cell's gap is 1, so each level's sum is the cell count: it
    # doubles level to level and never reaches the 10^3 bound
    rep = vh_check(corpus.corpus_get("G6"), _OnesPrimitive(), uniform_schedule(0.25, 5),
                   tol=1e-4, seed=0)
    sums = rep.flags["sums"]
    assert len(sums) == 5 and max(sums) < DIVERGENCE_BOUND
    assert all(1.9 < b / a < 2.1 for a, b in zip(sums, sums[1:]))
    assert rep.verdict == "diverged"
    assert rep.divergence == {"rule": "monotone-growth", "window": 4}
    assert rep.estimate is None and rep.estimate_values == tuple(sums)


def test_vh_rejects_unknown_mode():
    spec = corpus.corpus_get("G2")
    with pytest.raises(ValueError):
        vh_check(spec, spec.exact_primitive(), UNIFORM12, tol=1e-4, mode="banana")


def test_variational_measure_interval():
    spec = corpus.corpus_get("G6")
    sched = corpus.named_schedule("uniform", levels=10)
    vm = variational_measure_estimate(spec.exact_primitive(), (0.0, 0.5),
                                      sched, seed=0)
    assert vm["approximate"] is True
    assert abs(vm["final"] - 0.5) < 0.01
    # estimates approach the measure from above as the gauge shrinks
    assert vm["estimates"][0] > vm["estimates"][-1]


def test_variational_measure_points_vanish():
    spec = corpus.corpus_get("G6")
    sched = corpus.named_schedule("uniform", levels=12)
    vm = variational_measure_estimate(spec.exact_primitive(),
                                      {"points": [0.25, 0.5, 0.75]},
                                      sched, seed=0)
    assert vm["final"] < 1e-2
    assert vm["estimates"][-1] < vm["estimates"][0] / 100.0


@pytest.mark.parametrize("E", [[1.5], [(-0.5, -0.2)], (0.75, 0.25)])
def test_variational_measure_set_outside_unit_interval_is_empty(E):
    # components are clipped to [0, 1] before empty ones are dropped, so a
    # set wholly outside [0, 1] (or reversed) is empty, never inverted
    phi = corpus.corpus_get("G6").exact_primitive()
    vm = variational_measure_estimate(phi, E, uniform_schedule(0.25, 3), seed=0)
    assert vm["set"] == []
    assert vm["final"] == 0.0


def test_build_primitive_tracks_exact_primitive():
    spec = corpus.corpus_get("G2")
    phi = build_primitive(spec, Gauge.constant(0.01))
    exact = spec.exact_primitive()
    for a, b in ((0.0, 1.0), (0.25, 0.75), (0.1, 0.2)):
        assert hausdorff(phi.query(a, b), exact.query(a, b)) < 0.01


# -- report mechanics -------------------------------------------------------------

def test_report_id_format():
    rep = henstock_integrate(corpus.corpus_get("G6"),
                             uniform_schedule(levels=5), tol=1e-2, seed=3)
    assert rep.report_id == "henstock:G6:s3:L5"


def test_report_json_and_csv_shapes():
    rep = henstock_integrate(corpus.corpus_get("G6"),
                             uniform_schedule(levels=4), tol=1e-2, seed=0)
    d = rep.to_json_dict(deterministic=True)
    json.dumps(d)
    assert d["verdict"] == "converged"
    assert all(lv["wall_ms"] == 0.0 for lv in d["levels"])
    rows = rep.csv_rows(deterministic=True)
    assert rows[0] == "level,residual,max_dir_residual,wall_ms"
    assert len(rows) == 1 + len(rep.levels)
    assert rows[1].startswith("1,,")  # level 1 has no Cauchy residual yet
    assert all(r.endswith(",0.000") for r in rows[1:])


def test_same_seed_same_report():
    spec = corpus.corpus_get("G2")
    sched = corpus.named_schedule("uniform", levels=8)
    r1 = mcshane_integrate(spec, sched, tol=1e-3, seed=9)
    r2 = mcshane_integrate(spec, sched, tol=1e-3, seed=9)
    assert r1.to_json_dict(deterministic=True) == r2.to_json_dict(deterministic=True)


def test_inconclusive_when_levels_run_out():
    rep = henstock_integrate(corpus.corpus_get("G2"),
                             uniform_schedule(levels=4), tol=1e-6, seed=0)
    assert rep.verdict == "inconclusive"
    assert rep.divergence is None
