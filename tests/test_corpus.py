import math

import numpy as np
import pytest

from gaugeset import corpus
from gaugeset.convex_sets import DirectionGrid, hausdorff, make_ball, make_interval
from gaugeset.corpus import F, F_prime, SIN_1, abs_F_prime


def test_sin1_constant():
    assert SIN_1 == math.sin(1.0)
    assert SIN_1 == pytest.approx(0.8414709848078965, abs=0)


def test_primitive_function_values():
    ts = np.array([0.0, 0.5, 1.0])
    vals = F(ts)
    assert vals[0] == 0.0
    assert vals[2] == pytest.approx(math.sin(1.0), abs=0)
    assert vals[1] == pytest.approx(0.25 * math.sin(4.0), abs=1e-15)


def test_derivative_at_origin_and_clamp():
    assert F_prime(np.array([0.0]))[0] == 0.0
    assert F_prime(np.array([5e-9]))[0] == 0.0  # below the clamp
    assert abs_F_prime(np.array([0.0]))[0] == 0.0


def test_derivative_finite_difference_oracle():
    """Central differences of F match F_prime away from the origin."""
    ts = np.linspace(0.05, 1.0, 400)
    h = 1e-7
    fd = (F(ts + h) - F(ts - h)) / (2.0 * h)
    # truncation error h^2/6 * |F'''|, |F'''| <~ 12/t^7; plus fd roundoff
    bound = (h * h / 6.0) * 12.0 / ts**7 + 1e-8
    assert np.all(np.abs(fd - F_prime(ts)) < bound)


def test_derivative_unbounded_near_origin():
    # |F'| ~ 2/t on the cos spikes: sample one spike per decade
    for k in (10, 100, 1000):
        t = 1.0 / math.sqrt(2.0 * math.pi * k)  # cos(t^-2) = 1
        assert abs_F_prime(np.array([t]))[0] > 1.0 / t


def test_corpus_names():
    assert corpus.corpus_names() == ["G1", "G2", "G3", "G4", "G5", "G6"]


def test_corpus_get_unknown():
    with pytest.raises(ValueError):
        corpus.corpus_get("G7")


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_flag_consistency(name):
    assert corpus.check_flag_consistency(corpus.corpus_get(name)) == []


def test_g1_truth_interval():
    spec = corpus.corpus_get("G1")
    expected = make_interval(SIN_1, 1.0 + SIN_1)
    assert hausdorff(spec.truth, expected) == 0.0


def test_g2_truth_and_evaluator():
    spec = corpus.corpus_get("G2")
    assert hausdorff(spec.truth, make_interval(0.0, 0.5)) == 0.0
    # Gamma2(0.5) = [0, 0.5] by hand
    np.testing.assert_array_equal(spec.eval_support(np.array([0.5]))[0], [0.0, 0.5])


def test_g3_has_no_truth():
    assert corpus.corpus_get("G3").truth is None


def test_g3_splits_derivative_by_sign():
    spec = corpus.corpus_get("G3")
    ts = np.linspace(0.1, 1.0, 50)
    vals = spec.eval_support(ts)
    fp = F_prime(ts)
    np.testing.assert_allclose(vals[:, 0], np.maximum(0.0, -fp), atol=0)
    np.testing.assert_allclose(vals[:, 1], np.maximum(0.0, fp), atol=0)


def test_g4_truth_and_evaluator():
    spec = corpus.corpus_get("G4")
    grid = DirectionGrid.circle(64)
    assert hausdorff(spec.truth, make_ball(grid, [0.0, 0.0], 0.5)) == 0.0
    # Gamma4(1) is the unit ball: support 1 in direction (1, 0)
    row = spec.eval_support(np.array([1.0]))[0]
    assert row[0] == 1.0
    np.testing.assert_allclose(row, 1.0)  # constant support for a centered ball


def test_g5_truth_is_singleton():
    spec = corpus.corpus_get("G5")
    np.testing.assert_array_equal(spec.truth.values, [-SIN_1, SIN_1])


def test_g6_truth_and_evaluator():
    spec = corpus.corpus_get("G6")
    assert hausdorff(spec.truth, make_interval(0.0, 1.0)) == 0.0
    ts = np.linspace(0.0, 1.0, 7)
    np.testing.assert_array_equal(
        spec.eval_support(ts), np.tile([0.0, 1.0], (7, 1))
    )


def test_g1_is_g5_plus_unit_interval():
    """Gamma1 = Gamma5 + [0, 1] pointwise, exactly, as support vectors."""
    g1 = corpus.corpus_get("G1")
    g5 = corpus.corpus_get("G5")
    ts = np.linspace(0.0, 1.0, 101)
    shift = np.array([0.0, 1.0])  # support values of [0, 1]
    np.testing.assert_array_equal(g1.eval_support(ts), g5.eval_support(ts) + shift)


@pytest.mark.parametrize("name,a,b", [("G1", 0.0, 1.0), ("G2", 0.25, 0.75),
                                      ("G5", 0.0, 1.0), ("G6", 0.1, 0.9)])
def test_exact_primitives_are_additive(name, a, b):
    phi = corpus.corpus_get(name).exact_primitive()
    mid = (a + b) / 2.0
    whole = phi.query_batch([a], [b])[0]
    split = phi.query_batch([a], [mid])[0] + phi.query_batch([mid], [b])[0]
    np.testing.assert_allclose(whole, split, atol=1e-15)


def test_exact_primitive_full_interval_values():
    g1 = corpus.corpus_get("G1").exact_primitive()
    np.testing.assert_allclose(g1.query_batch([0.0], [1.0])[0], [-SIN_1, 1.0 + SIN_1],
                               atol=1e-15)
    g2 = corpus.corpus_get("G2").exact_primitive()
    np.testing.assert_allclose(g2.query_batch([0.0], [1.0])[0], [0.0, 0.5], atol=0)
    g6 = corpus.corpus_get("G6").exact_primitive()
    np.testing.assert_array_equal(g6.query_batch([0.25], [0.75])[0], [0.0, 0.5])


def test_g4_primitive_is_radius_integral():
    phi = corpus.corpus_get("G4").exact_primitive()
    row = phi.query_batch([0.0], [1.0])[0]
    np.testing.assert_allclose(row, 0.5, atol=1e-15)  # int_0^1 t dt in all dirs


def test_g3_has_no_exact_primitive():
    assert corpus.corpus_get("G3").exact_primitive is None


def test_recommended_settings_cover_methods():
    for name in corpus.corpus_names():
        rec = corpus.corpus_get(name).recommended
        for method in ("henstock", "mcshane", "birkhoff", "vh", "vms", "hkp"):
            assert method in rec, (name, method)
            assert "tol" in rec[method]


def test_named_schedule_monotone_and_cached():
    s = corpus.named_schedule("henstock-origin", levels=12)
    assert len(s.levels) == 12
    ts = np.linspace(0.0, 1.0, 101)
    for g1, g2 in zip(s.levels, s.levels[1:]):
        assert np.all(g2(ts) <= g1(ts) + 1e-15)
    assert corpus.named_schedule("henstock-origin", levels=12) is s


def test_named_schedule_unknown():
    with pytest.raises(ValueError):
        corpus.named_schedule("no-such-schedule")


def test_uniform_measurable_schedule_is_piecewise():
    s = corpus.named_schedule("uniform-measurable", levels=6)
    assert all(g.kind == "piecewise" for g in s.levels)


def test_named_parts_dyadic14():
    parts = corpus.named_parts("dyadic-14")
    assert len(parts) == 14
    assert parts[0]["n_pieces"] == 2
    assert parts[-1]["n_pieces"] == 2**14
    assert all(p["interleave_depth"] == 3 for p in parts)
    with pytest.raises(ValueError):
        corpus.named_parts("dyadic-99")


def test_flags_carry_notes():
    spec = corpus.corpus_get("G1")
    for key in ("henstock", "mcshane", "birkhoff", "vH", "vMS", "hkp",
                "integrably_bounded"):
        assert spec.flags[key]["value"] in ("yes", "no")
        assert spec.flags[key]["note"]


def test_to_json_dict_roundtrippable():
    import json

    for name in corpus.corpus_names():
        d = corpus.corpus_get(name).to_json_dict()
        json.dumps(d)  # must be serializable
        assert d["name"] == name
