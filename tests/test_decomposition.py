import dataclasses
import json

import numpy as np
import pytest

from gaugeset import corpus
from gaugeset.convex_sets import DirectionGrid
from gaugeset.corpus import F_prime
from gaugeset.decomposition import (
    Selection,
    argmax_selection,
    riemann_measurability_probe,
    singleton_of,
    steiner_selection,
    subtract_selection,
    verify_decomposition,
)
from gaugeset.errors import NotASelection
from gaugeset.integrators import (
    _vh_pass,
    build_primitive,
    henstock_integrate,
    henstock_with_selection,
    scalar_hk,
    vh_check,
)

LINE = DirectionGrid.line()
CIRCLE = DirectionGrid.circle(64)


# -- selections -----------------------------------------------------------------

def test_steiner_selection_g2_is_half_t():
    sel = steiner_selection(corpus.corpus_get("G2"))
    ts = np.array([0.0, 0.4, 1.0])
    np.testing.assert_allclose(sel(ts).ravel(), ts / 2.0, atol=0)


def test_steiner_selection_g1_is_shifted_derivative():
    sel = steiner_selection(corpus.corpus_get("G1"))
    ts = np.linspace(0.1, 1.0, 20)
    np.testing.assert_allclose(sel(ts).ravel(), F_prime(ts) + 0.5, atol=1e-15)


def test_steiner_selection_g4_is_center():
    sel = steiner_selection(corpus.corpus_get("G4"))
    pts = sel(np.array([0.3, 0.9]))
    np.testing.assert_allclose(pts, 0.0, atol=1e-15)


def test_argmax_selection_line_directions():
    g2 = corpus.corpus_get("G2")
    top = argmax_selection(g2, "+1")
    bot = argmax_selection(g2, "-1")
    ts = np.array([0.2, 0.8])
    np.testing.assert_allclose(top(ts).ravel(), ts, atol=0)   # sup of [0, t]
    np.testing.assert_allclose(bot(ts).ravel(), 0.0, atol=0)  # inf of [0, t]


def test_argmax_selection_g1_minus_one_is_derivative():
    sel = argmax_selection(corpus.corpus_get("G1"), "-1")
    ts = np.linspace(0.05, 1.0, 33)
    np.testing.assert_allclose(sel(ts).ravel(), F_prime(ts), atol=0)


def test_argmax_selection_g3_plus_one():
    sel = argmax_selection(corpus.corpus_get("G3"), "+1")
    ts = np.array([0.3, 0.7])
    np.testing.assert_allclose(sel(ts).ravel(), np.maximum(0.0, F_prime(ts)),
                               atol=0)


def test_argmax_selection_circle_vertex_attains_support():
    g4 = corpus.corpus_get("G4")
    sel = argmax_selection(g4, 5)  # direction by grid index
    ts = np.array([0.25, 0.5, 1.0])
    pts = sel(ts)
    u = CIRCLE.dirs[5]
    spike = 1.0 / np.cos(np.pi / CIRCLE.m)  # circumscribed-polygon vertex
    for t, p in zip(ts, pts):
        assert p @ u == pytest.approx(t, abs=1e-9)
        assert np.linalg.norm(p) <= t * spike + 1e-12


def test_argmax_selection_accepts_vector_direction():
    g4 = corpus.corpus_get("G4")
    by_index = argmax_selection(g4, 0)
    by_vector = argmax_selection(g4, [1.0, 0.0])
    ts = np.array([0.5])
    np.testing.assert_array_equal(by_index(ts), by_vector(ts))


def test_argmax_selection_rejects_bad_direction():
    with pytest.raises(ValueError):
        argmax_selection(corpus.corpus_get("G2"), "0")
    with pytest.raises(ValueError):
        argmax_selection(corpus.corpus_get("G4"), [0.0, 0.0])
    for k in (-1, 64):  # grid indices are 0..m-1
        with pytest.raises(ValueError, match="grid index"):
            argmax_selection(corpus.corpus_get("G4"), k)


def test_subtract_selection_reports_membership():
    g2 = corpus.corpus_get("G2")
    G, stats = subtract_selection(g2, steiner_selection(g2))
    assert stats["probe_points"] >= 1000
    assert stats["min_support"] >= -1e-9
    assert stats["contains_zero"] is True
    # G = [0, t] - {t/2} = [-t/2, t/2]
    row = G.eval_support(np.array([0.6]))[0]
    np.testing.assert_allclose(row, [0.3, 0.3], atol=1e-15)


def test_subtract_selection_rejects_outsider():
    g2 = corpus.corpus_get("G2")
    bad = Selection(name="2t", d=1,
                    eval_points=lambda ts: 2.0 * np.asarray(ts, dtype=float)[:, None])
    with pytest.raises(NotASelection) as ei:
        subtract_selection(g2, bad)
    assert ei.value.t is not None


def test_singleton_of_wraps_selection():
    sel = steiner_selection(corpus.corpus_get("G2"))
    mf = singleton_of(sel, LINE)
    row = mf.eval_support(np.array([0.5]))[0]
    np.testing.assert_allclose(row, [-0.25, 0.25], atol=0)


# -- theorem verification ----------------------------------------------------------

def test_t33_g2_holds_definitively():
    g2 = corpus.corpus_get("G2")
    rep = verify_decomposition(g2, steiner_selection(g2), "t33", tol=1e-4, seed=0)
    assert rep.verdict == "holds"
    assert rep.expected == "holds"
    assert rep.definitive is True
    assert rep.gap < 1e-4
    names = [c["name"] for c in rep.clauses]
    assert names == ["gamma_henstock", "remainder_mcshane",
                     "selection_component_0", "additivity_gap"]
    assert all(c["pass"] for c in rep.clauses)


def test_t42_g2_swaps_in_measurable_machinery():
    g2 = corpus.corpus_get("G2")
    rep = verify_decomposition(g2, steiner_selection(g2), "t42", tol=1e-3, seed=0)
    assert rep.verdict == "holds"
    assert rep.expected == "holds"
    names = [c["name"] for c in rep.clauses]
    assert "remainder_birkhoff" in names
    assert rep.gap < 1e-3


def test_t33_g3_fails_as_expected():
    g3 = corpus.corpus_get("G3")
    rep = verify_decomposition(g3, steiner_selection(g3), "t33", tol=1e-3, seed=0)
    assert rep.verdict == "fails"
    assert rep.expected == "fails"
    assert rep.definitive is True  # divergence is a definitive failure
    failing = [c for c in rep.clauses if not c["pass"]]
    assert failing


def test_t33_g4_two_dimensional():
    g4 = corpus.corpus_get("G4")
    rep = verify_decomposition(g4, steiner_selection(g4), "t33", tol=1e-3, seed=0)
    assert rep.verdict == "holds"
    assert rep.gap < 1e-3
    # two scalar component clauses for a d=2 selection
    comp = [c for c in rep.clauses if c["name"].startswith("selection_component")]
    assert len(comp) == 2


def test_verify_decomposition_rejects_unknown_theorem():
    g2 = corpus.corpus_get("G2")
    with pytest.raises(ValueError):
        verify_decomposition(g2, steiner_selection(g2), "t99", tol=1e-3)


def test_verify_decomposition_propagates_bad_selection():
    g2 = corpus.corpus_get("G2")
    bad = Selection(name="2t", d=1,
                    eval_points=lambda ts: 2.0 * np.asarray(ts, dtype=float)[:, None])
    with pytest.raises(NotASelection):
        verify_decomposition(g2, bad, "t33", tol=1e-3)


def test_decomposition_report_serializable():
    g2 = corpus.corpus_get("G2")
    rep = verify_decomposition(g2, steiner_selection(g2), "t33", tol=1e-4, seed=0)
    d = rep.to_json_dict(deterministic=True)
    json.dumps(d)
    assert d["theorem"] == "t33"
    assert d["membership"]["contains_zero"] is True
    assert len(d["report_refs"]) >= 3


# -- shared pass for Gamma and the selection components ---------------------------

def _standalone_runs(mf, sel, theorem, tol, seed=0):
    """Gamma and component reports from separate one-block runs."""
    if theorem == "t42":
        sched, tol_h = corpus.named_schedule("uniform-measurable"), tol
    else:
        rec = mf.recommended["henstock"]
        sched, tol_h = corpus.named_schedule(rec["schedule"]), rec["tol"]
    gamma = henstock_integrate(mf, sched, tol_h, seed=seed)
    if theorem == "t42":
        gamma.flags["gauge_mode"] = "measurable"
    comps = [scalar_hk(lambda ts, i=i: sel(ts)[:, i], sched, tol, seed=seed,
                       name=f"{sel.name}[{i}]")
             for i in range(mf.d)]
    return gamma, comps


def _zero_selection(d):
    return Selection(name="zero", d=d,
                     eval_points=lambda ts: np.zeros((np.size(ts), d)))


@pytest.mark.parametrize("entry, make_sel, theorem, tol", [
    ("G1", lambda mf: argmax_selection(mf, "-1"), "t33", 1e-3),
    ("G4", steiner_selection, "t33", 1e-3),
    ("G2", steiner_selection, "t42", 1e-4),
    ("G3", lambda mf: _zero_selection(mf.d), "t33", 1e-3),
    ("G6", lambda mf: steiner_selection(corpus.corpus_get("G2")), "t33", 1e-4),
])
def test_shared_pass_reports_equal_standalone_runs(entry, make_sel, theorem, tol):
    mf = corpus.corpus_get(entry)
    sel = make_sel(mf)
    rep = verify_decomposition(mf, sel, theorem, tol=tol, seed=0)
    gamma, comps = _standalone_runs(mf, sel, theorem, tol)
    assert (rep.reports["gamma_henstock"].to_json_dict(deterministic=True)
            == gamma.to_json_dict(deterministic=True))
    assert len(comps) == mf.d
    for i, comp in enumerate(comps):
        assert (rep.reports[f"selection_component_{i}"].to_json_dict(deterministic=True)
                == comp.to_json_dict(deterministic=True))


def test_shared_pass_blocks_stop_independently():
    # the zero selection has no from_support: the pass falls back to sel(ts)
    g3 = corpus.corpus_get("G3")
    rep = verify_decomposition(g3, _zero_selection(1), "t33", tol=1e-3, seed=0)
    gamma = rep.reports["gamma_henstock"]
    comp = rep.reports["selection_component_0"]
    assert gamma.verdict == "diverged"
    assert [s.level for s in gamma.levels] == [1]
    assert comp.verdict == "converged"
    assert [s.level for s in comp.levels] == list(range(1, 13))
    assert comp.value == 0.0


def test_selection_from_support_matches_eval_points():
    g4 = corpus.corpus_get("G4")
    ts = np.linspace(0.0, 1.0, 17)
    V = g4.eval_support(ts)
    for sel in (steiner_selection(g4), argmax_selection(g4, 3)):
        np.testing.assert_array_equal(sel.from_support(V), sel(ts))
        np.testing.assert_array_equal(sel.at(g4, ts, V), sel(ts))
    zero = _zero_selection(2)
    assert zero.support_map(g4) is None
    np.testing.assert_array_equal(zero.at(g4, ts, V), np.zeros((ts.size, 2)))


def test_selection_of_another_entry_is_evaluated_itself():
    # steiner(G2) = t/2 lies in G6 = [0, 1], whose own Steiner point is 1/2
    g6 = corpus.corpus_get("G6")
    sel = steiner_selection(corpus.corpus_get("G2"))
    assert sel.support_map(g6) is None
    ts = np.linspace(0.0, 1.0, 9)
    G, _ = subtract_selection(g6, sel)
    np.testing.assert_array_equal(G.eval_support(ts),
                                  g6.eval_support(ts) - sel(ts) @ LINE.dirs.T)


def test_selection_of_another_entry_outside_the_set_raises():
    # steiner(G3) = F'/2 leaves G2 = [0, t]
    g2 = corpus.corpus_get("G2")
    with pytest.raises(NotASelection):
        subtract_selection(g2, steiner_selection(corpus.corpus_get("G3")))


def test_fallback_pass_stops_evaluating_gamma_with_its_run():
    g3 = corpus.corpus_get("G3")
    calls = []

    def counting(ts):
        calls.append(np.size(ts))
        return g3.eval_support(ts)

    mf = dataclasses.replace(g3, eval_support=counting)
    gamma, [comp] = henstock_with_selection(
        mf, _zero_selection(1), corpus.named_schedule("uniform"), 1e-3, 1e-3)
    assert [s.level for s in gamma.levels] == [1]
    assert len(comp.levels) == 12
    assert len(calls) == 19  # level 1 only: the build tags and 18 probe tag sets


def test_remainder_evaluates_gamma_once_per_call():
    g2 = corpus.corpus_get("G2")
    calls = []

    def counting(ts):
        calls.append(np.size(ts))
        return g2.eval_support(ts)

    mf = dataclasses.replace(g2, eval_support=counting)
    G, _ = subtract_selection(mf, steiner_selection(mf))
    calls.clear()
    row = G.eval_support(np.array([0.6, 0.2]))
    assert calls == [2]
    np.testing.assert_allclose(row, [[0.3, 0.3], [0.1, 0.1]], atol=1e-15)


# -- t55: one variational pass for Gamma, {f} and G -----------------------------

def _t55_maps(mf, sel):
    """Gamma, {f} and G = Gamma - f, and the primitives t55 checks them against."""
    Sf = singleton_of(sel, mf.grid)
    G, _ = subtract_selection(mf, sel)
    finest = corpus.named_schedule(mf.recommended["vh"]["schedule"]).levels[-1]
    phi = mf.exact_primitive() if mf.exact_primitive else build_primitive(mf, finest)
    return (mf, Sf, G), (phi, build_primitive(Sf, finest), build_primitive(G, finest))


@pytest.mark.parametrize("entry, make_sel, tol", [
    ("G2", steiner_selection, 1e-4),
    ("G4", steiner_selection, 1e-3),
    ("G6", lambda mf: steiner_selection(corpus.corpus_get("G2")), 1e-4),
    ("G3", steiner_selection, 1e-3),  # no exact primitive: Gamma's is built too
])
def test_t55_shared_vh_reports_equal_standalone_runs(entry, make_sel, tol):
    mf = corpus.corpus_get(entry)
    sel = make_sel(mf)
    rep = verify_decomposition(mf, sel, "t55", tol=tol, seed=0)
    sched = corpus.named_schedule(mf.recommended["vh"]["schedule"])
    tol_vh = mf.recommended["vh"]["tol"]
    maps, phis = _t55_maps(mf, sel)
    for clause, m, phi in zip(("gamma_vh", "selection_vh", "remainder_vh"), maps, phis):
        alone = vh_check(m, phi, sched, mode="perron", tol=tol_vh, seed=0)
        assert (rep.reports[clause].to_json_dict(deterministic=True)
                == alone.to_json_dict(deterministic=True)), clause


class _OnesPrimitive:
    """Every cell's value is (1, 1), so each gap is about 1 and a level's sum
    about its cell count: 2^(n+3) at level n of the uniform schedule, past
    the 10^3 bound first at level 7."""

    def query_batch(self, a, b):
        return np.ones((len(a), 2))


@dataclasses.dataclass
class _LeftEndpointValues:
    """Cell values |I| Gamma(a) at the left edge: zero gaps at the nominal
    left tags, so a level's value is set by a later probe."""

    mf: object

    def query_batch(self, a, b):
        return (b - a)[:, None] * self.mf.eval_support(a)


@pytest.mark.parametrize("diverging", [{0}, {1}, {0, 1, 2}])
def test_t55_diverging_vh_blocks_stop_alone(diverging):
    g2 = corpus.corpus_get("G2")
    calls = []

    def counting(ts):
        calls.append(np.size(ts))
        return g2.eval_support(ts)

    mf = dataclasses.replace(g2, eval_support=counting)
    sel = steiner_selection(mf)
    maps = (mf, singleton_of(sel, LINE), subtract_selection(mf, sel)[0])
    phis = [_OnesPrimitive() if k in diverging else _LeftEndpointValues(m)
            for k, m in enumerate(maps)]
    sched = corpus.named_schedule("uniform")

    def eval_blocks(ts, blocks):  # as in verify_decomposition's t55 pass
        V = mf.eval_support(ts)
        S = sel.at(mf, ts, V) @ LINE.dirs.T
        return V, S, V - S

    calls.clear()
    reps = _vh_pass(eval_blocks, LINE, [m.name for m in maps], phis, sched, "perron", 1e-4, 0)
    if len(diverging) == 3:
        # six full levels of 19 tag sets (nominal and 18 probes), then level 7's
        # nominal and first probe, after which every block has frozen
        assert len(calls) == 6 * 19 + 2
    for k, (m, phi, rep) in enumerate(zip(maps, phis, reps)):
        alone = vh_check(m, phi, sched, mode="perron", tol=1e-4, seed=0)
        assert rep.to_json_dict(deterministic=True) == alone.to_json_dict(deterministic=True)
        assert len(rep.levels) == (7 if k in diverging else 12)
        assert (rep.verdict == "diverged") == (k in diverging)


# -- measurability probe ------------------------------------------------------------

def test_probe_constant_function_passes():
    f = lambda ts: np.full_like(np.asarray(ts, dtype=float), 2.5)
    r = riemann_measurability_probe(f, (0.0, 1.0), delta=1e-3, seed=0)
    assert r["plain_max"] == 0.0
    assert r["strong_max"] == 0.0
    assert r["verdict"] == "pass"


def test_probe_derivative_fails_at_coarse_delta():
    """At delta 1e-3 the oscillation of F' on [0.1, 1] is order one."""
    r = riemann_measurability_probe(F_prime, (0.1, 1.0), delta=1e-3, seed=0)
    assert r["verdict"] == "fail"
    assert r["plain_max"] > 0.5
    assert r["worst"]["term"] > 0.0


def test_probe_derivative_passes_at_fine_delta():
    r = riemann_measurability_probe(F_prime, (0.1, 1.0), delta=1e-6, seed=0)
    assert r["verdict"] == "pass"
    assert r["plain_max"] < 0.05
    assert r["complement_measure"] == pytest.approx(0.1)


def test_probe_origin_defeats_any_delta():
    # with 0 inside F the ladder tags reach the singularity of F'
    r = riemann_measurability_probe(F_prime, (0.0, 1.0), delta=1e-6, seed=0)
    assert r["verdict"] == "fail"


def test_probe_strong_dominates_plain():
    for dom, delta in (((0.1, 1.0), 1e-3), ((0.2, 0.9), 1e-4)):
        r = riemann_measurability_probe(F_prime, dom, delta=delta, seed=1)
        assert r["strong_max"] >= r["plain_max"]
        # adversarial max/min pairs give nonnegative terms: the two coincide
        assert r["strong_max"] == pytest.approx(r["plain_max"], rel=1e-12)


def test_probe_overlapping_components_are_one_set():
    f = lambda ts: np.sin(40.0 * np.asarray(ts, dtype=float))
    r = riemann_measurability_probe(f, [(0.0, 0.8), (0.2, 1.0)], delta=1e-3, seed=0)
    assert r == riemann_measurability_probe(f, (0.0, 1.0), delta=1e-3, seed=0)
    assert r["complement_measure"] == 0.0


def test_probe_multiple_components():
    r = riemann_measurability_probe(F_prime, [(0.2, 0.4), (0.6, 0.9)],
                                    delta=1e-6, seed=0)
    assert r["complement_measure"] == pytest.approx(0.5)
    assert r["verdict"] == "pass"
