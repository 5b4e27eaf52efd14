"""The benchmark's workloads: op lists, expected outcomes and tolerances.

Every expectation here is fixed data: verdicts and exit codes from the
README corpus table, closed forms from the paper (evaluated in checks.py),
and tolerances copied from the entries' recommended settings, which are the
accuracies the program itself claims.  Nothing is read back from
``gaugeset.corpus``, so a change that flips a registry flag or loosens a
tolerance cannot also move its own oracle.  Why each workload exists is
recorded in BENCHMARK.json and README.md beside this file.

An op is either a CLI invocation (``argv``, run in-process through
``gaugeset.cli.main`` with ``--deterministic --seed <seed> --out <dir>``
appended) or a library call (``lib``) for the two pieces no command reaches
at a bearable size.  Expectation keys:

    exit       CLI exit code (README "Exit codes")
    verdict    report verdict; ``expected`` the decomposition's expectation
    truth      name of the oracle integral (checks.TRUTHS) for the estimate
    tol        tolerance on the estimate, gap and selection integrals
    diverge_at the level at which the divergence bound must fire
    vsum_below the final variational sum must sit below this
    selection  oracle integrals (checks.SCALARS) of the selection components
    remainder  oracle integral of the remainder Gamma - f
    varmeasure which variational-measure oracle applies
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple = ()
    lib: str = ""
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple


def _integrate(entry, method, **expect):
    return Op(f"integrate {entry} {method}",
              argv=("integrate", entry, "--method", method), expect=expect)


def _decompose(entry, sel, theorem, **expect):
    return Op(f"decompose {entry} {sel} {theorem}",
              argv=("decompose", entry, "--selection", sel,
                    "--theorem", theorem), expect=expect)


def _varmeasure(entry, set_token, **expect):
    return Op(f"varmeasure {entry} {set_token}",
              argv=("varmeasure", entry, "--set", set_token), expect=expect)


_CONVERGED = dict(exit=0, verdict="converged")
_HKP = dict(exit=0, verdict="hkp-consistent")
_DIVERGED = dict(exit=0, verdict="diverged")
_HOLDS = dict(exit=0, verdict="holds", expected="holds")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="singular-perron",
        ops=(
            _integrate("G1", "henstock", truth="G1", tol=1e-3, **_CONVERGED),
            _integrate("G5", "hkp", truth="G5", tol=1e-3, **_HKP),
            _integrate("G1", "vh", vsum_below=5e-2, **_CONVERGED),
            _integrate("G1", "mcshane", diverge_at=1, **_DIVERGED),
            _integrate("G3", "henstock", diverge_at=1, **_DIVERGED),
            _integrate("G5", "vms", diverge_at=1, **_DIVERGED),
        ),
    ),
    Workload(
        name="birkhoff-grid64",
        ops=(
            _integrate("G1", "birkhoff", **_DIVERGED),
            _integrate("G2", "birkhoff", truth="G2", tol=1e-4, **_CONVERGED),
            _integrate("G3", "birkhoff", **_DIVERGED),
            _integrate("G4", "birkhoff", truth="G4", tol=1e-3, **_CONVERGED),
            _integrate("G5", "birkhoff", **_DIVERGED),
            _integrate("G6", "birkhoff", truth="G6", tol=1e-4, **_CONVERGED),
            _integrate("G4", "henstock", truth="G4", tol=1e-3, **_CONVERGED),
            _integrate("G4", "mcshane", truth="G4", tol=1e-3, **_CONVERGED),
            _integrate("G4", "hkp", truth="G4", tol=1e-3, **_HKP),
            _integrate("G4", "vh", vsum_below=1e-3, **_CONVERGED),
            _integrate("G4", "vms", vsum_below=1e-3, **_CONVERGED),
        ),
    ),
    Workload(
        name="decompose",
        ops=(
            _decompose("G1", "argmax:-1", "t33", truth="G1", selection=("SIN1",),
                       remainder="G6", tol=1e-3, **_HOLDS),
            _decompose("G4", "steiner", "t33", truth="G4", selection=("ZERO", "ZERO"),
                       remainder="G4", tol=1e-3, **_HOLDS),
            _decompose("G2", "steiner", "t42", truth="G2", selection=("QUARTER",),
                       remainder="G2-minus-steiner", tol=1e-4, **_HOLDS),
            _decompose("G2", "steiner", "t55", truth="G2", selection=("QUARTER",),
                       remainder="G2-minus-steiner", tol=1e-4, **_HOLDS),
        ),
    ),
    Workload(
        name="variational-primitive",
        ops=(
            _varmeasure("G2", "0.25:0.75", exit=0, varmeasure="G2-quarter", tol=1e-3),
            _varmeasure("G1", "0", exit=0, varmeasure="G1-origin-halving"),
            Op("build_primitive G1 vh-origin[12]", lib="build_primitive",
               expect=dict(truth="G1", tol=1e-3)),
            Op("vh_check G1 built-primitive", lib="vh_check",
               expect=dict(verdict="converged", vsum_below=5e-2)),
        ),
    ),
)}
