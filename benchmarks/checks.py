"""Oracles and per-op checks, independent of the code under test.

Closed forms are evaluated with mpmath at 30 digits and rounded once to
float.  Support vectors use the package's public convention: an interval
[a, b] on the line is stored as (-a, b); a set in R^2 as its support values
on the 64-direction circle grid.  The checks read only the report files the
ops wrote and the op's exit code and stdout.
"""

from __future__ import annotations

import json
import math

import mpmath as mp

mp.mp.dps = 30


def _quad(f, lo, hi):
    return float(mp.quad(f, [lo, hi]))


_SIN1 = float(mp.sin(1))  # int_0^1 F'(t) dt = F(1) - F(0+) = sin 1
_HALF = _quad(lambda t: t, 0, 1)  # int_0^1 t dt
_ONE = _quad(lambda t: 1, 0, 1)

# Integrals over [0, 1] as support vectors.
TRUTHS = {
    "G1": [-_SIN1, _ONE + _SIN1],  # {F'} + [0, 1]   -> [sin 1, 1 + sin 1]
    "G2": [0.0, _HALF],  # [0, t]                      -> [0, 1/2]
    "G4": [_HALF] * 64,  # ball of radius t           -> radius-1/2 ball
    "G5": [-_SIN1, _SIN1],  # {F'}                   -> {sin 1}
    "G6": [0.0, _ONE],  # [0, 1]                       -> [0, 1]
    # G2 minus its Steiner point t/2 is [-t/2, t/2]  -> [-1/4, 1/4]
    "G2-minus-steiner": [_quad(lambda t: t / 2, 0, 1)] * 2,
}

# Integrals of the scalar selection components used by the decompose ops.
SCALARS = {
    "SIN1": _SIN1,  # argmax:-1 of G1 is the lower endpoint F'(t)
    "ZERO": 0.0,  # Steiner point of a ball centred at the origin
    "QUARTER": _quad(lambda t: t / 2, 0, 1),  # Steiner point of [0, t]
}

VARMEASURE_G2_QUARTER = _quad(lambda t: t, 0.25, 0.75)  # |Phi|([.25, .75])
UNIFORM_BASE = 0.25  # uniform schedule: delta_n = 0.25 * 2^-n, n = 1..12


def _sup_gap(values, truth):
    if len(values) != len(truth):
        return math.inf
    return max(abs(float(v) - t) for v, t in zip(values, truth))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_op(op, rec):
    """Return a list of failure reasons for one executed op (empty = pass)."""
    exp = op.expect
    if rec.get("error"):
        return [f"exception: {rec['error'].strip().splitlines()[-1]}"]
    bad = []
    if "exit" in exp and rec.get("exit") != exp["exit"]:
        bad.append(f"exit {rec.get('exit')} != {exp['exit']}")
    if not rec.get("report"):
        return bad + ["no report written"]
    rep = _load(rec["report"])
    if "verdict" in exp and rep.get("verdict") != exp["verdict"]:
        bad.append(f"verdict {rep.get('verdict')!r} != {exp['verdict']!r}")
    if "expected" in exp and rep.get("expected") != exp["expected"]:
        bad.append(f"expected {rep.get('expected')!r} != {exp['expected']!r}")
    tol = exp.get("tol")
    if "truth" in exp and "reports" not in rep:
        vals = rep.get("total") if op.lib == "build_primitive" else rep.get("estimate")
        gap = _sup_gap(vals or [], TRUTHS[exp["truth"]])
        if not gap < tol:
            bad.append(f"estimate off {exp['truth']} by {gap:.3e} >= {tol:g}")
    if "diverge_at" in exp:
        div = rep.get("divergence") or {}
        if div.get("level") != exp["diverge_at"]:
            bad.append(f"divergence level {div.get('level')} != {exp['diverge_at']}")
    if "vsum_below" in exp:
        sums = rep.get("flags", {}).get("sums") or [math.inf]
        if not sums[-1] < exp["vsum_below"]:
            bad.append(f"final variational sum {sums[-1]:.3e} >= {exp['vsum_below']:g}")
    if rep.get("method") == "birkhoff" and rep["flags"].get("permutation_bit_exact") is not True:
        bad.append("birkhoff sums not permutation bit-exact")
    if "reports" in rep:
        bad += _check_decomposition(exp, rep)
    if "varmeasure" in exp:
        bad += _check_varmeasure(exp, rep)
    return bad


def _check_decomposition(exp, rep):
    bad = []
    tol = exp["tol"]
    if not rep.get("gap", math.inf) < tol:
        bad.append(f"decomposition gap {rep.get('gap')} >= {tol:g}")
    reports = rep["reports"]
    gamma = reports.get("gamma_henstock", {}).get("estimate") or []
    gap = _sup_gap(gamma, TRUTHS[exp["truth"]])
    if not gap < tol:
        bad.append(f"Gamma estimate off {exp['truth']} by {gap:.3e}")
    rem = [r for k, r in reports.items() if k.startswith("remainder_")
           and r.get("method") != "vh"]
    for r in rem:
        gap = _sup_gap(r.get("estimate") or [], TRUTHS[exp["remainder"]])
        if not gap < tol:
            bad.append(f"remainder {r.get('method')} off by {gap:.3e}")
    for i, key in enumerate(exp["selection"]):
        est = (reports.get(f"selection_component_{i}", {}).get("estimate") or [math.inf])[0]
        if not abs(est - SCALARS[key]) < tol:
            bad.append(f"selection component {i} = {est!r}, want {SCALARS[key]!r}")
    return bad


def _check_varmeasure(exp, rep):
    est = rep.get("estimates") or []
    if exp["varmeasure"] == "G2-quarter":
        gap = abs(rep.get("final", math.inf) - VARMEASURE_G2_QUARTER)
        return [] if gap < exp["tol"] else [f"varmeasure off 1/4 by {gap:.3e}"]
    # {0}: a delta_n-fine item tagged at 0 is [0, w] with w < delta_n and
    # |Phi([0, w])| = max(|F(w)|, F(w) + w) <= w + w^2, so the estimates are
    # bounded by delta_n (1 + delta_n) and halve from level to level.
    bad = []
    if len(est) != 12:
        return [f"{len(est)} varmeasure levels, want 12"]
    for n, v in enumerate(est, start=1):
        d = UNIFORM_BASE * 2.0 ** -n
        if not 0.0 < v < d * (1.0 + d):
            bad.append(f"level {n}: {v!r} outside (0, delta(1 + delta))")
    for n, (a, b) in enumerate(zip(est, est[1:]), start=2):
        if a > 0 and not 0.35 < b / a < 0.65:
            bad.append(f"level {n}: ratio {b / a:.3f} is not a halving")
    return bad
