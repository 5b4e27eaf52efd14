"""End-to-end acceptance runs, one test per advertised behavior.

Each test prints one PASS line on success; pytest -v adds the per-test
verdict.  Heavy integrator runs are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from gaugeset import corpus
from gaugeset.cli import main as cli_main
from gaugeset.convex_sets import (
    DirectionGrid,
    contains_point,
    hausdorff,
    make_ball,
    make_interval,
    minkowski_add,
    norm,
    steiner_point,
    translate,
)
from gaugeset.corpus import SIN_1, F_prime, abs_F_prime
from gaugeset.decomposition import (
    Selection,
    argmax_selection,
    singleton_of,
    steiner_selection,
    subtract_selection,
    verify_decomposition,
)
from gaugeset.integrators import (
    birkhoff_integrate,
    directional_profile,
    henstock_integrate,
    mcshane_integrate,
    scalar_hk,
    variational_measure_estimate,
    vh_check,
)
from gaugeset.partitions import Gauge, cousin_build, is_delta_fine

LINE = DirectionGrid.line()
CIRCLE = DirectionGrid.circle(64)
PARTS14 = corpus.named_parts("dyadic-14")
UNIFORM12 = corpus.named_schedule("uniform", levels=12)


def announce(num, text):
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def g1_henstock():
    spec = corpus.corpus_get("G1")
    sched = corpus.named_schedule("henstock-origin", levels=12)
    return henstock_integrate(spec, sched, tol=1e-3, seed=0)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def test_criterion_01_scalar_singular_derivative():
    sched = corpus.named_schedule("henstock-origin", levels=12)
    t0 = time.perf_counter()
    rep = scalar_hk(F_prime, sched, tol=1e-3, seed=0)
    elapsed = time.perf_counter() - t0
    assert rep.verdict == "converged"
    assert abs(rep.value - SIN_1) < 1e-3
    assert len(rep.levels) <= 12
    assert elapsed < 10.0
    announce(1, f"scalar estimate {rep.value:.10f} vs sin 1, "
                f"{elapsed:.1f} s, {len(rep.levels)} levels")


def test_criterion_02_free_tag_divergence_vs_henstock(g1_henstock):
    g1 = corpus.corpus_get("G1")
    abs_mf = singleton_of(
        Selection(name="abs-derivative", d=1,
                  eval_points=lambda ts: abs_F_prime(ts)[:, None]),
        LINE,
    )
    assert mcshane_integrate(g1, UNIFORM12, tol=1e-3, seed=0).verdict == "diverged"
    assert birkhoff_integrate(g1, PARTS14, tol=1e-3, seed=0).verdict == "diverged"
    assert mcshane_integrate(abs_mf, UNIFORM12, tol=1e-3, seed=0).verdict == "diverged"
    assert birkhoff_integrate(abs_mf, PARTS14, tol=1e-3, seed=0).verdict == "diverged"
    assert g1_henstock.verdict == "converged"
    truth = make_interval(SIN_1, 1.0 + SIN_1)
    gap = hausdorff(g1_henstock.estimate, truth)
    assert gap < 1e-3
    announce(2, f"free-tag runs diverge, gauge-tagged estimate off truth by {gap:.2e}")


# Closed forms from mpmath at 30 digits, independent of the corpus code (each
# test imports it, so the rest of this module runs without it).

def test_g1_henstock_matches_mpmath_sin1(g1_henstock):
    import mpmath as mp

    with mp.workdps(30):  # int_0^1 F' = F(1) - F(0+) = sin 1
        sin1 = float(mp.sin(1))
    np.testing.assert_allclose(g1_henstock.estimate_values, [-sin1, 1.0 + sin1],
                               rtol=0.0, atol=1e-3)


def test_g4_henstock_matches_mpmath_half_ball():
    import mpmath as mp

    with mp.workdps(30):  # the radius-t ball integrates to the radius-1/2 ball
        half = float(mp.quad(lambda t: t, [0, 1]))
    rep = henstock_integrate(corpus.corpus_get("G4"), UNIFORM12, tol=1e-3, seed=0)
    assert rep.verdict == "converged"
    np.testing.assert_allclose(rep.estimate_values, [half] * 64, rtol=0.0, atol=1e-3)


def _mpmath_truths():
    """Integrals over [0, 1] as support vectors: (-lo, hi) on the line, radii on the circle."""
    import mpmath as mp

    with mp.workdps(30):
        sin1 = float(mp.sin(1))
        half = float(mp.quad(lambda t: t, [0, 1]))
        one = float(mp.quad(lambda t: 1, [0, 1]))
    return {"G1": [-sin1, one + sin1], "G2": [0.0, half], "G4": [half] * 64,
            "G5": [-sin1, sin1], "G6": [0.0, one]}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("method", ["henstock", "mcshane", "birkhoff"])
@pytest.mark.parametrize("entry", ["G1", "G2", "G4", "G5", "G6"])
def test_converged_runs_lie_within_their_error_bar(entry, method, seed):
    """A converged run at the recommended settings has |estimate - truth| <= eff_residual."""
    mf = corpus.corpus_get(entry)
    rec = corpus.recommendation(mf, method)
    if method == "birkhoff":
        rep = birkhoff_integrate(mf, corpus.named_parts(rec["parts"]), rec["tol"], seed=seed)
    else:
        run = henstock_integrate if method == "henstock" else mcshane_integrate
        rep = run(mf, corpus.recommended_schedule(mf, method), rec["tol"], seed=seed)
    if rep.verdict == "converged":
        truth = _mpmath_truths()[entry]
        gap = max(abs(v - t) for v, t in zip(rep.estimate_values, truth, strict=True))
        assert gap <= rep.levels[-1].eff_residual


def test_criterion_03_decomposition_with_derivative_selection(runner, tmp_path):
    g1 = corpus.corpus_get("G1")
    sel = argmax_selection(g1, "-1")
    G, stats = subtract_selection(g1, sel)
    # the remainder of the lower-endpoint selection is the constant [0, 1],
    # up to the one-ulp residue of (F'(t) + 1) - F'(t)
    rows = G.eval_support(np.linspace(0.0, 1.0, 101))
    np.testing.assert_allclose(rows, np.tile([0.0, 1.0], (101, 1)),
                               rtol=0.0, atol=1e-12)
    rep = verify_decomposition(g1, sel, "t33", tol=1e-3, seed=0)
    assert rep.verdict == "holds"
    assert rep.gap < 1e-3
    res = runner.invoke(cli_main, ["decompose", "G1", "--selection", "argmax:-1",
                                   "--theorem", "t33", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    announce(3, f"remainder is [0,1], additivity gap {rep.gap:.2e}, exit 0")


def test_criterion_04_measurable_gauge_decomposition():
    g2 = corpus.corpus_get("G2")
    rep = verify_decomposition(g2, steiner_selection(g2), "t42", tol=1e-3, seed=0)
    assert rep.verdict == "holds"
    assert rep.definitive is True
    assert rep.gap < 1e-3
    assert all(c["pass"] for c in rep.clauses)
    announce(4, f"measurable-gauge run holds with gap {rep.gap:.2e}")


@pytest.mark.parametrize("name,agree", [("G2", 3e-4), ("G4", 3e-3), ("G6", 3e-4)])
def test_criterion_05_integrator_coincidence(name, agree):
    spec = corpus.corpus_get(name)
    tol = 1e-4 if spec.d == 1 else 1e-3
    sched_m = corpus.named_schedule("uniform-measurable", levels=12)
    reps = [
        henstock_integrate(spec, UNIFORM12, tol=tol, seed=0),
        mcshane_integrate(spec, UNIFORM12, tol=tol, seed=0),
        mcshane_integrate(spec, sched_m, tol=tol, seed=0),
        birkhoff_integrate(spec, PARTS14, tol=tol, seed=0),
    ]
    assert all(r.verdict == "converged" for r in reps)
    worst = max(
        float(np.max(np.abs(np.array(a.estimate_values) - np.array(b.estimate_values))))
        for i, a in enumerate(reps)
        for b in reps[i + 1:]
    )
    assert worst < agree
    announce(5, f"{name}: four integrators pairwise within {worst:.2e} < {agree:g}")


def test_criterion_06_directional_profiles():
    g4 = corpus.corpus_get("G4")
    prof4 = directional_profile(g4, UNIFORM12, tol=1e-3, seed=0)
    assert prof4.verdict == "hkp-consistent"
    assert prof4.per_direction["n_converged"] == 64
    ball = make_ball(CIRCLE, [0.0, 0.0], 0.5)
    gap = hausdorff(prof4.estimate, ball)
    assert gap < 1e-3

    prof3 = directional_profile(corpus.corpus_get("G3"), UNIFORM12, tol=1e-3, seed=0)
    assert prof3.verdict == "not-hkp"
    assert "+1" in prof3.per_direction["divergent"]
    announce(6, f"ball profile within {gap:.2e} over 64 directions; "
                "positive direction flagged divergent")


def test_criterion_07_embedding_invariants():
    rng = np.random.default_rng(2024)
    n = 10_000
    scale_pow = 2**26

    def rand_interval():
        k = np.sort(rng.integers(-(2**26), 2**26 + 1, size=2))
        return make_interval(k[0] / scale_pow, k[1] / scale_pow)

    for _ in range(n):
        A, B, C = rand_interval(), rand_interval(), rand_interval()
        # linearity: associativity and commutativity with zero error
        AB = minkowski_add(A, B)
        assert hausdorff(minkowski_add(AB, C), minkowski_add(A, minkowski_add(B, C))) == 0.0
        assert hausdorff(AB, minkowski_add(B, A)) == 0.0
        # sup-norm is the metric, exactly
        assert hausdorff(A, B) == float(np.max(np.abs(A.values - B.values)))
        assert norm(A) == hausdorff(A, make_interval(0.0, 0.0))
        # translation invariance with zero error
        x = np.array([rng.integers(-(2**26), 2**26 + 1) / scale_pow])
        assert hausdorff(translate(A, x), translate(B, x)) == hausdorff(A, B)
        # steiner: membership and additivity within 1e-9
        s = steiner_point(AB)
        assert contains_point(AB, s, slack=1e-9)
        assert abs(float((s - steiner_point(A) - steiner_point(B))[0])) <= 1e-9
    announce(7, f"{n} dyadic interval triples: exact linearity, metric, "
                "translation; steiner within 1e-9")


def test_criterion_08_variational_modes():
    g1 = corpus.corpus_get("G1")
    phi1 = g1.exact_primitive()
    sched_vh = corpus.named_schedule("vh-origin", levels=12)
    rep_p = vh_check(g1, phi1, sched_vh, tol=5e-2, seed=0, mode="perron")
    assert rep_p.verdict == "converged"
    rep_f = vh_check(g1, phi1, UNIFORM12, tol=5e-2, seed=0, mode="free")
    assert rep_f.verdict == "diverged"

    g2 = corpus.corpus_get("G2")
    phi2 = g2.exact_primitive()
    sched10 = corpus.named_schedule("uniform", levels=10)
    for mode in ("perron", "free"):
        rep = vh_check(g2, phi2, sched10, tol=1e-4, seed=0, mode=mode)
        assert rep.verdict == "converged", mode
        sums = [st.eff_residual for st in rep.levels]
        ratios = [sums[i + 1] / sums[i] for i in range(4, len(sums) - 1)]
        assert all(0.45 <= r <= 0.55 for r in ratios), (mode, ratios)
    announce(8, "tagged variational check converges, free variant diverges; "
                "halving decay in both modes elsewhere")


def test_criterion_09_variational_measure():
    g2 = corpus.corpus_get("G2")
    vm_mid = variational_measure_estimate(g2.exact_primitive(), (0.25, 0.75),
                                          UNIFORM12, seed=0)
    assert abs(vm_mid["final"] - 0.25) <= 0.025

    g6 = corpus.corpus_get("G6")
    vm_pts = variational_measure_estimate(g6.exact_primitive(),
                                          {"points": [0.25, 0.5, 0.75]},
                                          UNIFORM12, seed=0)
    assert vm_pts["estimates"][-1] < vm_pts["estimates"][0] / 100.0
    assert vm_pts["final"] < 5e-3

    g1 = corpus.corpus_get("G1")
    vm_origin = variational_measure_estimate(g1.exact_primitive(),
                                             {"points": [0.0]},
                                             UNIFORM12, seed=0)
    assert vm_origin["final"] < 1e-3
    announce(9, f"measure estimates: interval {vm_mid['final']:.3f}, "
                f"points decay to {vm_pts['final']:.1e}, "
                f"origin {vm_origin['final']:.1e}")


def test_criterion_10_partition_machinery():
    # randomized gauges: cousin output is always strictly fine
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ncells = int(rng.integers(2, 9))
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, ncells - 1)), [1.0]])
        g = Gauge.step(breaks, rng.uniform(0.01, 0.5, ncells))
        P = cousin_build(g)
        assert is_delta_fine(P, g, require_perron=True)

    rep = birkhoff_integrate(corpus.corpus_get("G6"), PARTS14, tol=1e-4, seed=0)
    assert rep.flags["permutation_bit_exact"] is True
    announce(10, "100 gauges fine, summation order irrelevant to the bit")


def test_criterion_11_byte_identical_reports(runner, tmp_path):
    pairs = [
        ["integrate", "G2", "--method", "henstock", "--deterministic"],
        ["decompose", "G2", "--selection", "steiner", "--theorem", "t33",
         "--deterministic"],
    ]
    for args in pairs:
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        r1 = runner.invoke(cli_main, args + ["--out", str(d1)])
        r2 = runner.invoke(cli_main, args + ["--out", str(d2)])
        assert r1.exit_code == 0 and r2.exit_code == 0, (r1.output, r2.output)
        files1 = sorted(p.name for p in d1.iterdir())
        assert files1 == sorted(p.name for p in d2.iterdir())
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    announce(11, "rerun reports byte-identical for integrate and decompose")
