"""Curated multifunction families with ground truth and integrability flags.

The registry is the test bed for every theorem check: each entry carries a
support-function evaluator on a fixed direction grid, yes/no/unknown flags
per integral notion (each with a provenance note naming the closed form or
oracle behind it), the closed-form integral over [0, 1] where one exists,
an exact interval primitive where one exists, and recommended run settings
(schedule + tolerance) per method.

The singular star of the corpus is F(t) = t^2 sin(t^-2), F(0) = 0, whose
derivative

    F'(t) = 2 t sin(t^-2) - (2/t) cos(t^-2),   F'(0) = 0

is everywhere defined but not Lebesgue integrable on [0, 1]: |F'| blows up
like 2/t along the cos spikes.  F' separates the integral notions cleanly
(HK yes, McShane/Birkhoff no) and the fundamental theorem gives the exact
value F(1) - F(0) = sin 1 to test against.  Evaluation clamps t <= 1e-8 to
the analytic limit 0 so t^-2 never overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np

from .convex_sets import (
    DirectionGrid,
    ExactIntervalMap,
    SupportSet,
    make_ball,
    make_interval,
    make_point,
)
from .integrators import _pooled

SIN_1 = math.sin(1.0)
_CLAMP = 1e-8


def _clamped(fn, ts):
    """fn at the tags above 1e-8 and 0 at the rest.

    fn runs on a contiguous array either way: on ts itself when every tag is
    above the clamp, else on the gathered tags that are.
    """
    ts = np.asarray(ts, dtype=np.float64)
    mask = ts > _CLAMP
    if ts.flags.c_contiguous and mask.all():
        return np.asarray(fn(ts))
    out = np.zeros_like(ts)
    out[mask] = fn(ts[mask])
    return out


def _f(t):
    return t * t * np.sin(t ** -2.0)


def _f_prime(t):
    inv2 = t ** -2.0
    return 2.0 * t * np.sin(inv2) - (2.0 / t) * np.cos(inv2)


def F(ts):
    """t^2 sin(t^-2), clamped to 0 for t <= 1e-8."""
    return _clamped(_f, ts)


def F_prime(ts):
    """2t sin(t^-2) - (2/t) cos(t^-2), with F'(0) = 0 and the same clamp."""
    return _clamped(_f_prime, ts)


def abs_F_prime(ts):
    """|F'|.  Paper claim: F' is not Lebesgue integrable (|F'| ~ 2/t on the cos spikes)."""
    return np.abs(F_prime(ts))


@dataclass(frozen=True)
class MultifunctionSpec:
    """One registry entry: evaluator, flags, truth, recommended settings."""

    name: str
    d: int
    description: str
    grid: DirectionGrid
    # ts (N,) -> (N, m) support values, effect-free; may be a read-only view,
    # and one broadcast along its directions (strides[1] == 0) is reduced once.
    # The registry's evaluators are also thread-safe, and _register marks them
    # (_pooled) so that row blocks of one tag set are evaluated on two threads
    eval_support: object
    flags: dict
    truth: SupportSet | None
    params: dict = field(default_factory=dict)
    exact_primitive: object = None  # () -> ExactIntervalMap, or None
    recommended: dict = field(default_factory=dict)

    @property
    def m(self):
        return self.grid.m

    def flag(self, key):
        return self.flags[key]["value"]

    def to_json_dict(self):
        return {
            "name": self.name,
            "d": self.d,
            "m": self.m,
            "description": self.description,
            "params": self.params,
            "flags": self.flags,
            "truth": None if self.truth is None else list(map(float, self.truth.values)),
            "has_exact_primitive": self.exact_primitive is not None,
            "recommended": self.recommended,
        }


def _flag(value, note):
    return {"value": value, "note": note}


_LINE = DirectionGrid.line()
_CIRCLE = DirectionGrid.circle(64)


def _g1_eval(ts):
    fp = F_prime(ts)
    out = np.empty((fp.shape[0], 2))
    np.negative(fp, out=out[:, 0])
    np.add(fp, 1.0, out=out[:, 1])
    return out


def _g2_eval(ts):
    ts = np.asarray(ts, dtype=np.float64)
    return np.column_stack([np.zeros_like(ts), ts])


def _g3_eval(ts):
    fp = F_prime(ts)
    out = np.empty((fp.shape[0], 2))
    out[:, 0] = np.maximum(0.0, -fp)
    out[:, 1] = np.maximum(0.0, fp)
    return out


def _g4_eval(ts):
    ts = np.asarray(ts, dtype=np.float64)
    return np.broadcast_to(ts[:, None], (ts.shape[0], _CIRCLE.m))  # read-only view


def _g5_eval(ts):
    fp = F_prime(ts)
    out = np.empty((fp.shape[0], 2))
    np.negative(fp, out=out[:, 0])
    out[:, 1] = fp
    return out


def _g6_eval(ts):
    ts = np.asarray(ts, dtype=np.float64)
    out = np.zeros((ts.shape[0], 2))
    out[:, 1] = 1.0
    return out


def _g1_primitive():
    def fn(a, b):
        df = F(b) - F(a)
        return np.column_stack([-df, df + (b - a)])
    return ExactIntervalMap(_LINE, fn, name="G1-primitive")


def _g2_primitive():
    def fn(a, b):
        hi = (b * b - a * a) / 2.0
        return np.column_stack([np.zeros_like(hi), hi])
    return ExactIntervalMap(_LINE, fn, name="G2-primitive")


def _g4_primitive():
    def fn(a, b):
        r = np.where(b <= a, 0.0, (b * b - a * a) / 2.0)
        return np.broadcast_to(r[:, None], (r.shape[0], _CIRCLE.m))  # read-only view
    return ExactIntervalMap(_CIRCLE, fn, name="G4-primitive")


def _g5_primitive():
    def fn(a, b):
        df = F(b) - F(a)
        return np.column_stack([-df, df])
    return ExactIntervalMap(_LINE, fn, name="G5-primitive")


def _g6_primitive():
    def fn(a, b):
        w = b - a
        return np.column_stack([np.zeros_like(w), w])
    return ExactIntervalMap(_LINE, fn, name="G6-primitive")


# Schedule / partition recommendations by id; resolved by named_schedule /
# named_parts.  The origin-tuned families absorb t = 0 into one wide cell
# tagged at 0 and force quadratic resolution elsewhere; constants were
# calibrated so the worst-case estimate error sits under the entry tol.
_HENSTOCK_ORIGIN = dict(h0=1.0, h_factor=2.0 ** (-7.0 / 12.0),
                        c0=2.0 ** -5.5, c_factor=2.0 ** -0.5)
_VH_ORIGIN = dict(h0=0.25, h_factor=2.0 ** (-1.0 / 3.0),
                  c0=0.04, c_factor=2.0 ** (-2.0 / 3.0))


@lru_cache(maxsize=None)
def named_schedule(spec_id, levels=12):
    from . import integrators as it

    if spec_id == "uniform":
        return it.uniform_schedule(0.25, levels)
    if spec_id == "uniform-measurable":
        return it.measurable_uniform_schedule(0.25, levels)
    if spec_id == "henstock-origin":
        return it.origin_schedule(levels=levels, name="henstock-origin",
                                  **_HENSTOCK_ORIGIN)
    if spec_id == "vh-origin":
        return it.origin_schedule(levels=levels, name="vh-origin", **_VH_ORIGIN)
    raise ValueError(f"unknown schedule id {spec_id!r}")


def recommendation(mf, method):
    """mf's recommended settings for method; {} when it has none (off-registry)."""
    return getattr(mf, "recommended", {}).get(method, {})


def recommended_schedule(mf, method, schedule_id=None, levels=None):
    """Gauge schedule for method on mf: ``schedule_id``, else mf's recommended
    one, else "uniform".  Without ``levels`` the lookup is named_schedule(id)
    itself, so it shares that call's cache entry.
    """
    sched_id = schedule_id or recommendation(mf, method).get("schedule", "uniform")
    return named_schedule(sched_id, levels=int(levels)) if levels else named_schedule(sched_id)


def named_parts(parts_id):
    if parts_id == "dyadic-14":
        return [{"n_pieces": 2 ** l, "interleave_depth": 3} for l in range(1, 15)]
    raise ValueError(f"unknown partition schedule id {parts_id!r}")


_NOT_LEBESGUE = "|F'| ~ 2/t on the cos spikes, not Lebesgue integrable"

_REGISTRY = {}


def _register(spec):
    _pooled(spec.eval_support)
    _REGISTRY[spec.name] = spec
    return spec


_register(MultifunctionSpec(
    name="G1",
    d=1,
    description="{F'(t)} + [0,1]; HK-integrable but not McShane, the "
                "derivative translate of a constant interval",
    grid=_LINE,
    eval_support=_g1_eval,
    flags={
        "henstock": _flag("yes", "fundamental theorem for the HK integral: "
                                 "estimate must hit [sin 1, 1 + sin 1]"),
        "mcshane": _flag("no", "free tags near 0 meet " + _NOT_LEBESGUE),
        "birkhoff": _flag("no", "adversarial tags in the piece containing 0 "
                                "give unbounded sums"),
        "vH": _flag("yes", "variation of {F(b)-F(a)} + (b-a)[0,1] vanishes "
                           "under the origin-tuned gauges"),
        "vMS": _flag("no", "needs integrable boundedness; " + _NOT_LEBESGUE),
        "hkp": _flag("yes", "each direction is a scalar HK integral of "
                            "-F' or F' + 1"),
        "integrably_bounded": _flag("no", "sup norm is |F'| + 1, " + _NOT_LEBESGUE),
    },
    truth=make_interval(SIN_1, 1.0 + SIN_1),
    exact_primitive=_g1_primitive,
    recommended={
        "henstock": {"schedule": "henstock-origin", "tol": 1e-3},
        "mcshane": {"schedule": "uniform", "tol": 1e-3},
        "birkhoff": {"parts": "dyadic-14", "tol": 1e-3},
        "vh": {"schedule": "vh-origin", "tol": 5e-2},
        "vms": {"schedule": "uniform", "tol": 5e-2},
        "hkp": {"schedule": "henstock-origin", "tol": 1e-3},
    },
))

_register(MultifunctionSpec(
    name="G2",
    d=1,
    description="[0, t]; Lipschitz, integrable in every sense",
    grid=_LINE,
    eval_support=_g2_eval,
    flags={
        "henstock": _flag("yes", "closed form [0, t^2/2]"),
        "mcshane": _flag("yes", "bounded Lipschitz evaluator"),
        "birkhoff": _flag("yes", "bounded Lipschitz evaluator"),
        "vH": _flag("yes", "primitive [0, (b^2-a^2)/2] has vanishing variation"),
        "vMS": _flag("yes", "bounded Lipschitz evaluator"),
        "hkp": _flag("yes", "both directions are Riemann integrals"),
        "integrably_bounded": _flag("yes", "|Gamma2(t)| <= 1"),
    },
    truth=make_interval(0.0, 0.5),
    exact_primitive=_g2_primitive,
    recommended={
        "henstock": {"schedule": "uniform", "tol": 1e-4},
        "mcshane": {"schedule": "uniform", "tol": 1e-4},
        "birkhoff": {"parts": "dyadic-14", "tol": 1e-4},
        "vh": {"schedule": "uniform", "tol": 1e-4},
        "vms": {"schedule": "uniform", "tol": 1e-4},
        "hkp": {"schedule": "uniform", "tol": 1e-4},
    },
))

_register(MultifunctionSpec(
    name="G3",
    d=1,
    description="conv{0, F'(t)}; support in direction +1 is max(0, F'), "
                "which is not HK-integrable",
    grid=_LINE,
    eval_support=_g3_eval,
    flags={
        "henstock": _flag("no", "direction +1 support is the positive part "
                                "of F', divergent like the log of the mesh"),
        "mcshane": _flag("no", "implied: McShane would imply Henstock"),
        "birkhoff": _flag("no", "adversarial tags near 0 give unbounded sums"),
        "vH": _flag("no", "no finite variational primitive in direction +1"),
        "vMS": _flag("no", "implied: vMS would imply vH"),
        "hkp": _flag("no", "direction +1 diverges; so does -1 (negative part)"),
        "integrably_bounded": _flag("no", _NOT_LEBESGUE),
    },
    truth=None,
    exact_primitive=None,
    recommended={
        "henstock": {"schedule": "uniform", "tol": 1e-3},
        "mcshane": {"schedule": "uniform", "tol": 1e-3},
        "birkhoff": {"parts": "dyadic-14", "tol": 1e-3},
        "vh": {"schedule": "uniform", "tol": 5e-2},
        "vms": {"schedule": "uniform", "tol": 5e-2},
        "hkp": {"schedule": "uniform", "tol": 1e-3},
    },
))

_register(MultifunctionSpec(
    name="G4",
    d=2,
    description="closed ball of radius t centered at the origin in R^2",
    grid=_CIRCLE,
    eval_support=_g4_eval,
    flags={
        "henstock": _flag("yes", "support value is t in every direction; "
                                 "truth is the ball of radius 1/2"),
        "mcshane": _flag("yes", "bounded Lipschitz evaluator"),
        "birkhoff": _flag("yes", "bounded Lipschitz evaluator"),
        "vH": _flag("yes", "primitive ball radius (b^2-a^2)/2"),
        "vMS": _flag("yes", "bounded Lipschitz evaluator"),
        "hkp": _flag("yes", "every direction integrates t"),
        "integrably_bounded": _flag("yes", "|Gamma4(t)| <= 1"),
    },
    truth=make_ball(_CIRCLE, np.zeros(2), 0.5),
    exact_primitive=_g4_primitive,
    recommended={
        "henstock": {"schedule": "uniform", "tol": 1e-3},
        "mcshane": {"schedule": "uniform", "tol": 1e-3},
        "birkhoff": {"parts": "dyadic-14", "tol": 1e-3},
        "vh": {"schedule": "uniform", "tol": 1e-3},
        "vms": {"schedule": "uniform", "tol": 1e-3},
        "hkp": {"schedule": "uniform", "tol": 1e-3},
    },
))

_register(MultifunctionSpec(
    name="G5",
    d=1,
    description="singleton {F'(t)}; the scalar HK-not-Lebesgue example "
                "embedded as a multifunction",
    grid=_LINE,
    eval_support=_g5_eval,
    flags={
        "henstock": _flag("yes", "fundamental theorem: truth {sin 1}"),
        "mcshane": _flag("no", _NOT_LEBESGUE),
        "birkhoff": _flag("no", "adversarial tags near 0 give unbounded sums"),
        "vH": _flag("yes", "variation of {F(b)-F(a)} vanishes under the "
                           "origin-tuned gauges"),
        "vMS": _flag("no", "needs integrable boundedness; " + _NOT_LEBESGUE),
        "hkp": _flag("yes", "both directions are scalar HK integrals"),
        "integrably_bounded": _flag("no", _NOT_LEBESGUE),
    },
    truth=make_point(_LINE, np.array([SIN_1])),
    exact_primitive=_g5_primitive,
    recommended={
        "henstock": {"schedule": "henstock-origin", "tol": 1e-3},
        "mcshane": {"schedule": "uniform", "tol": 1e-3},
        "birkhoff": {"parts": "dyadic-14", "tol": 1e-3},
        "vh": {"schedule": "vh-origin", "tol": 5e-2},
        "vms": {"schedule": "uniform", "tol": 5e-2},
        "hkp": {"schedule": "henstock-origin", "tol": 1e-3},
    },
))

_register(MultifunctionSpec(
    name="G6",
    d=1,
    description="constant [0, 1]; sums telescope to the value exactly",
    grid=_LINE,
    eval_support=_g6_eval,
    flags={
        "henstock": _flag("yes", "constant: exact by summation"),
        "mcshane": _flag("yes", "constant: exact by summation"),
        "birkhoff": _flag("yes", "constant: exact by summation"),
        "vH": _flag("yes", "primitive (b-a)[0,1] matches every term exactly"),
        "vMS": _flag("yes", "constant"),
        "hkp": _flag("yes", "constant"),
        "integrably_bounded": _flag("yes", "|Gamma6(t)| = 1"),
    },
    truth=make_interval(0.0, 1.0),
    exact_primitive=_g6_primitive,
    recommended={
        "henstock": {"schedule": "uniform", "tol": 1e-4},
        "mcshane": {"schedule": "uniform", "tol": 1e-4},
        "birkhoff": {"parts": "dyadic-14", "tol": 1e-4},
        "vh": {"schedule": "uniform", "tol": 1e-4},
        "vms": {"schedule": "uniform", "tol": 1e-4},
        "hkp": {"schedule": "uniform", "tol": 1e-4},
    },
))


def corpus_names():
    return sorted(_REGISTRY)


def corpus_get(name, params=None):
    """Look up a registry entry; params are reserved for family variants."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown corpus entry {name!r}; "
                         f"known: {', '.join(corpus_names())}")
    spec = _REGISTRY[name]
    if params:
        raise ValueError(f"{name} takes no params, got {params!r}")
    return spec


def check_flag_consistency(spec):
    """Implication checks between flags; returns a list of violations.

    Paper claims: McShane implies Henstock and HKP; vMS implies vH and
    integrable boundedness.
    """
    out = []
    f = spec.flag
    if f("mcshane") == "yes" and not (f("henstock") == "yes" and f("hkp") == "yes"):
        out.append("mcshane=yes requires henstock=yes and hkp=yes")
    if f("vMS") == "yes" and not (f("vH") == "yes" and f("integrably_bounded") == "yes"):
        out.append("vMS=yes requires vH=yes and integrably_bounded=yes")
    return out
