"""A broadcast support array is reduced once, with the bits of all its columns.

G4's evaluator and exact primitive return (N, 64) read-only views whose 64
columns share memory (stride 0).  Every reduction folds such an array to
its one column and widens the result, so each G4 report must equal, byte
for byte, the report of a copy of G4 whose arrays are materialized.
"""

import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner

from gaugeset import corpus
from gaugeset.cli import main
from gaugeset.convex_sets import ExactIntervalMap


def _materialized(spec):
    """``spec`` with evaluator and exact primitive returning own, writeable arrays."""
    def ev(ts):
        return np.ascontiguousarray(spec.eval_support(ts))

    def primitive():
        phi = spec.exact_primitive()
        return ExactIntervalMap(phi.grid, lambda a, b: np.ascontiguousarray(phi.fn(a, b)),
                                name=phi.name)

    return dataclasses.replace(spec, eval_support=ev, exact_primitive=primitive)


def _reports(args, tmp_path):
    res = CliRunner().invoke(main, [*args, "--seed", "0", "--deterministic",
                                    "--out", str(tmp_path)])
    assert res.exit_code in (0, 3), res.output
    files = sorted(tmp_path.iterdir())
    assert any(f.suffix == ".json" for f in files)
    return {f.name: f.read_bytes() for f in files}


def test_g4_arrays_are_broadcast_views():
    g4 = corpus.corpus_get("G4")
    ts = np.linspace(0.0, 1.0, 9)
    V = g4.eval_support(ts)
    assert V.shape == (9, 64) and V.strides[1] == 0 and not V.flags.writeable
    phi = g4.exact_primitive()
    cells = phi.query_batch(np.array([0.2, 0.5]), np.array([0.4, 0.6]))
    assert cells.strides[1] == 0 and not cells.flags.writeable
    np.testing.assert_allclose(cells[:, 0], [0.06, 0.055], rtol=1e-15)
    # the primitive zeroes its empty rows itself
    empty = phi.fn(np.array([0.5, 0.7]), np.array([0.5, 0.6]))
    assert empty.strides[1] == 0 and not np.any(empty)
    M = _materialized(g4).eval_support(ts)
    assert M.strides[1] != 0 and M.flags.writeable
    assert M.tobytes() == np.ascontiguousarray(V).tobytes()


@pytest.mark.parametrize("args", [
    ["integrate", "G4", "--method", "henstock"],
    ["integrate", "G4", "--method", "mcshane"],
    ["integrate", "G4", "--method", "hkp"],
    ["integrate", "G4", "--method", "vh"],
    ["integrate", "G4", "--method", "vms"],
    ["integrate", "G4", "--method", "birkhoff"],
    ["decompose", "G4", "--selection", "steiner", "--theorem", "t33"],
], ids=lambda args: "-".join(args[2:]))
def test_g4_reports_equal_materialized_copy(monkeypatch, tmp_path, args):
    folded = _reports(args, tmp_path / "folded")
    monkeypatch.setitem(corpus._REGISTRY, "G4", _materialized(corpus.corpus_get("G4")))
    assert _reports(args, tmp_path / "materialized") == folded
