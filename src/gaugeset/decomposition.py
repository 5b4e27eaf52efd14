"""Selections, remainders G = Gamma - f, and executable decomposition checks.

The decomposition theorems assert that a set-valued integral splits into a
point-valued selection integral plus a remainder with better integrability:

    t33:  Gamma Henstock  =  f scalar-HK  +  G McShane
    t42:  Gamma Henstock (measurable gauges)  =  f  +  G Birkhoff
    t55:  as t33, plus variational convergence of Gamma, {f} and G,
          and Birkhoff convergence of G

Selection existence is realized constructively: the Steiner point and
grid-polytope argmax support points.  Every produced selection must pass a
support-membership probe <u, f(t)> <= sigma(u, Gamma(t)) + 1e-9 on a fixed
t sample, and the remainder must contain 0 there (same inequality read the
other way).  Verification runs the component integrators, computes the
additivity gap d_H(est Gamma, est G + est f), and records a verdict per
clause; failures are recorded verdicts, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convex_sets import _line_meets, hausdorff, translate
from .errors import NotASelection
from .corpus import named_parts, named_schedule, recommendation, recommended_schedule
from .integrators import (
    _built_primitives,
    _fsum,
    _pooled,
    _vh_pass,
    birkhoff_integrate,
    henstock_with_selection,
    mcshane_integrate,
    normalize_set,
)

_MEMBERSHIP_SLACK = 1e-9
_MAX_INTERVALS = 4096  # interval budget of one Riemann-probe family


def _probe_ts():
    base = np.linspace(0.0, 1.0, 1001)
    near0 = np.geomspace(1e-8, 1e-2, 32)
    return np.unique(np.concatenate([base, near0]))


@dataclass(frozen=True)
class Selection:
    """Point-valued t -> f(t), vectorized, with a display name.

    A selection read off a set, f(t) = pick(Gamma(t)), carries
    ``from_support`` (support rows (N, m) -> points (N, d)) and its
    ``source`` Gamma, so callers that already hold that Gamma's support
    values at ts need not evaluate it again.  Support values of any other
    multifunction, even one on the same grid, say nothing about f.
    """

    name: str
    d: int
    eval_points: object  # ts (N,) -> (N, d)
    from_support: object = None  # V (N, m) -> (N, d), or None
    source: object = field(default=None, compare=False, repr=False)

    def __call__(self, ts):
        return self.eval_points(np.asarray(ts, dtype=np.float64))

    def support_map(self, mf):
        """``from_support`` if this selection was read off mf itself, else None."""
        return self.from_support if mf is self.source else None

    def at(self, mf, ts, V):
        """f(ts), given mf's support values V at ts (read only when f is read off mf)."""
        pick = self.support_map(mf)
        return self(ts) if pick is None else pick(V)

    @classmethod
    def _of_support(cls, name, mf, from_support):
        """Selection f = from_support o Gamma.eval_support, for the library's own picks.

        The pick is marked for the evaluation pool (_pooled), and so is f
        when Gamma's evaluator is.
        """
        def ev(ts):
            return from_support(mf.eval_support(np.asarray(ts, dtype=np.float64)))
        _pooled(from_support)
        return cls(name=name, d=mf.grid.d, eval_points=_pooled(ev, mf.eval_support),
                   from_support=from_support, source=mf)


@dataclass(frozen=True)
class DerivedMultifunction:
    """Lightweight multifunction facade for remainders and singletons."""

    name: str
    grid: object
    eval_support: object  # ts (N,) -> (N, m)


def steiner_selection(mf):
    """t -> steiner_point(Gamma(t)); always a member of the set."""
    grid = mf.grid
    if grid.d == 1:
        def pick(V):
            return ((V[:, 1] - V[:, 0]) / 2.0)[:, None]
    else:
        U = grid.dirs

        def pick(V):
            return (2.0 / grid.m) * (V @ U)
    return Selection._of_support("steiner", mf, pick)


def argmax_selection(mf, u):
    """t -> a support point of Gamma(t) in direction u.

    d=1: the attained endpoint (u = +1 the sup, u = -1 the inf).  d=2: a
    vertex of the grid polytope attaining sigma(u, .): the supporting line
    of u meets its two grid neighbors; of those vertices the one with the
    larger <u, x> wins, ties to the lower pair index.  u may be a grid
    index 0 <= u < m or a direction vector matching a grid row.
    """
    grid = mf.grid
    if grid.d == 1:
        uval = int(u)
        if uval not in (1, -1):
            raise ValueError("d=1 directions are +1 and -1")
        if uval == 1:
            def pick(V):
                return V[:, 1][:, None]
        else:
            def pick(V):
                return (-V[:, 0])[:, None]
        return Selection._of_support(f"argmax:{'+' if uval == 1 else ''}{uval}", mf, pick)

    if np.isscalar(u):
        k = int(u)
        if not 0 <= k < grid.m:
            raise ValueError(f"grid index must be in 0..{grid.m - 1}, got {k}")
    else:
        u = np.asarray(u, dtype=np.float64)
        hits = np.flatnonzero(np.all(np.abs(grid.dirs - u) <= 1e-12, axis=1))
        if hits.size == 0:
            raise ValueError("direction is not a grid direction")
        k = int(hits[0])
    U = grid.dirs
    m = grid.m
    i_prev, i_next = (k - 1) % m, (k + 1) % m
    pairs = [(min(i_prev, k), max(i_prev, k)), (min(k, i_next), max(k, i_next))]

    def pick(V):  # the vertices where line k meets its two neighbours' lines
        p1, p2 = (_line_meets(U, i, j, V[:, i], V[:, j])[1] for i, j in pairs)
        s1 = p1 @ U[k]
        s2 = p2 @ U[k]
        pick2 = s2 > s1 + 1e-12  # lower pair index wins ties
        return np.where(pick2[:, None], p2, p1)

    return Selection._of_support(f"argmax:u{k}", mf, pick)


def _support_parts(mf, sel, ts, remainder=False):
    """Support rows at ts of Gamma, {f} and G = Gamma - f, from one evaluation of Gamma;
    with ``remainder``, G's alone, subtracted in place of {f}'s."""
    V = mf.eval_support(ts)
    S = sel.at(mf, ts, V) @ mf.grid.dirs.T
    return np.subtract(V, S, out=S) if remainder else (V, S, V - S)


def subtract_selection(mf, sel):
    """Remainder G(t) = Gamma(t) - {f(t)} after validating f as a selection.

    Membership is probed on a fixed sample of t (a uniform mesh plus a
    geometric ladder toward 0 where the corpus singularities sit); any
    violation beyond 1e-9 support slack raises NotASelection with the first
    bad t.  The remainder then contains 0 at the probe points by the same
    inequality, recorded as stats.
    """
    ts = _probe_ts()
    _, _, slack = _support_parts(mf, sel, ts)  # support values of G at probe points
    worst = float(slack.min())
    if worst < -_MEMBERSHIP_SLACK:
        i, _ = np.unravel_index(int(np.argmin(slack)), slack.shape)
        raise NotASelection(
            f"{sel.name} leaves the set at t={ts[i]!r} "
            f"(support violation {-worst:.3e})", t=float(ts[i]))

    def ev(pts):
        return _support_parts(mf, sel, np.asarray(pts, dtype=np.float64), remainder=True)

    G = DerivedMultifunction(name=f"{mf.name}-minus-{sel.name}", grid=mf.grid,
                             eval_support=_pooled(ev, mf.eval_support, sel.support_map(mf)))
    stats = {
        "probe_points": int(ts.size),
        "min_support": worst,
        "contains_zero": bool(worst >= -_MEMBERSHIP_SLACK),
    }
    return G, stats


def singleton_of(sel, grid, name=None):
    """{f(t)} as a multifunction on the same grid."""
    def ev(ts):
        return sel(ts) @ grid.dirs.T
    return DerivedMultifunction(name=name or f"point:{sel.name}",
                                grid=grid, eval_support=_pooled(ev, sel.eval_points))


# -- theorem verification ----------------------------------------------------

_THEOREMS = ("t33", "t42", "t55")


@dataclass
class DecompositionReport:
    entry: str
    selection: str
    theorem: str
    verdict: str  # "holds" | "fails"
    expected: str | None  # from corpus flags, None off-registry
    definitive: bool  # False when failure rests on inconclusive clauses only
    gap: float
    tol: float
    clauses: list
    membership: dict
    reports: dict = field(default_factory=dict)

    def to_json_dict(self, deterministic=False):
        return {
            "entry": self.entry,
            "selection": self.selection,
            "theorem": self.theorem,
            "verdict": self.verdict,
            "expected": self.expected,
            "definitive": self.definitive,
            "gap": self.gap,
            "tol": self.tol,
            "clauses": self.clauses,
            "membership": self.membership,
            "report_refs": [r.report_id for r in self.reports.values()],
            "reports": {k: r.to_json_dict(deterministic)
                        for k, r in self.reports.items()},
        }


def _expected_outcome(mf, theorem):
    flags = getattr(mf, "flags", None)
    if not flags:
        return None
    key = {"t33": "henstock", "t42": "birkhoff", "t55": "vH"}[theorem]
    val = flags[key]["value"]
    if val == "unknown":
        return None
    return "holds" if val == "yes" else "fails"


def verify_decomposition(mf, sel, theorem, tol, seed=0):
    """Run one decomposition theorem's clauses and report per-clause verdicts.

    The remainder G = Gamma - f is built first (NotASelection propagates:
    a non-selection is a caller error, not a theorem failure).  Gamma runs
    under its recommended schedule where the registry provides one; f rides
    the same schedule (a selection inherits the integrand's singularity) in
    the same pass (henstock_with_selection).  G runs under the defaults for
    its kind.  t55's variational clauses on Gamma, {f} and G share one pass
    (_vh_pass) at the entry's recommended variational tolerance.  Gamma uses
    the entry's exact primitive when it has one; the other primitives are
    built at the finest variational gauge, all from one partition and one
    evaluation of Gamma.
    """
    theorem = theorem.lower().replace(".", "").replace("-", "")
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {_THEOREMS}")

    grid = mf.grid
    G, membership = subtract_selection(mf, sel)
    clauses, reports = [], {}

    def add_clause(name, report, require="converged"):
        ok = report.verdict == require
        clauses.append({
            "name": name,
            "verdict": report.verdict,
            "pass": bool(ok),
            "report_id": report.report_id,
        })
        reports[name] = report
        return ok

    if theorem == "t42":
        sched_h, tol_h = named_schedule("uniform-measurable"), tol
    else:
        sched_h = recommended_schedule(mf, "henstock")
        tol_h = recommendation(mf, "henstock").get("tol", tol)
    rep_gamma, rep_f = henstock_with_selection(mf, sel, sched_h, tol_h, tol, seed=seed)
    if sched_h.measurable:
        rep_gamma.flags["gauge_mode"] = "measurable"
    add_clause("gamma_henstock", rep_gamma)

    if theorem == "t42":
        rep_G = birkhoff_integrate(G, named_parts("dyadic-14"), tol, seed=seed)
        add_clause("remainder_birkhoff", rep_G)
    else:
        rep_G = mcshane_integrate(G, named_schedule("uniform"), tol, seed=seed)
        add_clause("remainder_mcshane", rep_G)

    for i, rep in enumerate(rep_f):
        add_clause(f"selection_component_{i}", rep)
    v_f = np.array([rep.value for rep in rep_f])

    gap = float(hausdorff(rep_gamma.estimate, translate(rep_G.estimate, v_f)))
    clauses.append({
        "name": "additivity_gap",
        "value": gap,
        "bound": tol,
        "pass": bool(gap < tol),
    })

    if theorem == "t55":
        sched_vh = recommended_schedule(mf, "vh")
        tol_vh = recommendation(mf, "vh").get("tol", max(tol, 5e-2))
        eval_blocks = _pooled(lambda ts, blocks: _support_parts(mf, sel, ts),
                              mf.eval_support, sel.support_map(mf))
        exact = mf.exact_primitive() if getattr(mf, "exact_primitive", None) else None
        built = _built_primitives(eval_blocks, grid, sched_vh.levels[-1],
                                  [0, 1, 2] if exact is None else [1, 2])
        names = (mf.name, singleton_of(sel, grid).name, G.name)
        reps = _vh_pass(eval_blocks, grid, names, [built.get(0, exact), built[1], built[2]],
                        sched_vh, "perron", tol_vh, seed)
        for clause, rep in zip(("gamma_vh", "selection_vh", "remainder_vh"), reps):
            add_clause(clause, rep)
        add_clause("remainder_birkhoff",
                   birkhoff_integrate(G, named_parts("dyadic-14"), tol, seed=seed))

    all_pass = all(c["pass"] for c in clauses)
    failing = [c for c in clauses if not c["pass"]]
    definitive = all_pass or any(
        c.get("verdict", "x") != "inconclusive" for c in failing)
    report = DecompositionReport(
        entry=mf.name,
        selection=sel.name,
        theorem=theorem,
        verdict="holds" if all_pass else "fails",
        expected=_expected_outcome(mf, theorem),
        definitive=definitive,
        gap=gap,
        tol=tol,
        clauses=clauses,
        membership=membership,
        reports=reports,
    )
    return report


# -- Riemann measurability probe ---------------------------------------------

def riemann_measurability_probe(f, F_set, delta, trials=12, eps=0.05, seed=0):
    """Oscillation statistics of f over seeded interval families inside F.

    F is read as by normalize_set; only its components of positive length
    are probed, since points hold no intervals.
    Each trial draws pairwise nonoverlapping intervals with widths below
    delta inside the components of F (a tiling when it fits the budget of
    4096 intervals, seeded placement otherwise) and, per interval, an
    adversarial tag pair: the max/min of f over the endpoints, 16 seeded
    points, and a geometric ladder toward 0 for intervals near the origin.
    It reports

        plain  = |sum (f(t_i) - f(t'_i)) |I_i||      (Riemann measurability)
        strong = sum |f(t_i) - f(t'_i)| |I_i|        (strong form)

    with pass verdicts iff every trial stays below eps.  strong >= plain
    holds exactly.  Both are finite lower witnesses of sups over all
    families; a fail is definitive, a pass is evidence.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    comps = [(lo, hi) for lo, hi in normalize_set(F_set) if hi > lo]
    measure = math.fsum(hi - lo for lo, hi in comps)
    complement = 1.0 - measure
    plain_max = strong_max = 0.0
    worst = None
    for k in range(trials):
        rng = np.random.default_rng([seed, 88, k])
        a_list, b_list = _draw_family(comps, delta, rng)
        if a_list.size == 0:
            continue
        t_hi, t_lo = _adversarial_pairs(f, a_list, b_list, rng)
        widths = b_list - a_list
        diffs = (f(t_hi) - f(t_lo)).astype(np.float64)
        terms = diffs * widths
        plain = abs(_fsum(terms))
        strong = _fsum(np.abs(terms))
        if strong > strong_max:
            j = int(np.argmax(np.abs(terms)))
            worst = {"interval": (float(a_list[j]), float(b_list[j])),
                     "pair": (float(t_hi[j]), float(t_lo[j])),
                     "term": float(abs(terms[j])), "trial": k}
        plain_max = max(plain_max, plain)
        strong_max = max(strong_max, strong)
    return {
        "delta": delta,
        "eps": eps,
        "trials": trials,
        "complement_measure": complement,
        "plain_max": plain_max,
        "strong_max": strong_max,
        "plain_pass": bool(plain_max < eps),
        "strong_pass": bool(strong_max < eps),
        "verdict": "pass" if plain_max < eps else "fail",
        "worst": worst,
    }


def _draw_family(comps, delta, rng):
    total = math.fsum(hi - lo for lo, hi in comps)
    a_out, b_out = [], []
    if total / (0.75 * delta) <= _MAX_INTERVALS:
        for lo, hi in comps:  # tile each component with sub-delta widths
            x = lo
            while x < hi - 1e-15 and len(a_out) < _MAX_INTERVALS:
                w = delta * rng.uniform(0.55, 0.95)
                b = min(x + w, hi)
                if b - x > 1e-15:
                    a_out.append(x)
                    b_out.append(b)
                x = b
    else:  # budgeted: seeded nonoverlapping placement
        weights = np.array([hi - lo for lo, hi in comps]) / total
        counts = (weights * _MAX_INTERVALS).astype(int)
        for (lo, hi), cnt in zip(comps, counts):
            if cnt == 0:
                continue
            starts = np.sort(rng.uniform(lo, hi, size=cnt))
            prev = lo
            for s in starts:
                if s < prev:
                    continue
                w = delta * rng.uniform(0.55, 0.95)
                b = min(s + w, hi)
                if b - s > 1e-15:
                    a_out.append(s)
                    b_out.append(b)
                    prev = b
    return np.asarray(a_out), np.asarray(b_out)


def _adversarial_pairs(f, a, b, rng, n_seeded=16):
    """Per interval, the max/min points of f over a candidate pool."""
    n = a.size
    w = b - a
    cols = [a, b]
    for _ in range(n_seeded):
        cols.append(rng.uniform(a, b))
    for j in range(1, 9):  # ladder bites only where the interval nears 0
        cols.append(np.where(a < 0.02, a + w * 4.0 ** (-j), a + w * 0.5))
    pool = np.column_stack(cols)
    vals = f(pool.ravel()).reshape(pool.shape)
    hi_idx = np.argmax(vals, axis=1)
    lo_idx = np.argmin(vals, axis=1)
    rows = np.arange(n)
    return pool[rows, hi_idx], pool[rows, lo_idx]
