"""Run one workload in this process and write its raw results.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --out DIR [--setup-only]

Set-up (import of gaugeset plus resolving every spec, named schedule and
named partition chain the workload uses) is timed first.  Then passes over
the op list run back to back, a closed loop with one caller, for as long
as the next pass is expected to end within ``--seconds`` (one pass at
least).  With ``--trace 1`` untraced and traced passes alternate in pairs,
so the traced run also yields the tracing overhead.

Each pass writes its reports under ``DIR/pass<k>/``; ``DIR/result.json``
records timings, exit codes, report paths and per-layer trace stats.  The
parent (run.py) checks outputs, so this process imports no oracle code and
its peak RSS is the program's plus a thin harness.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def setup(workload):
    """Import gaugeset from this checkout and resolve what the ops use."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gaugeset.cli  # noqa: F401  (the CLI layer is part of set-up)
    from gaugeset import corpus

    for op in workload.ops:
        _resolve(corpus, op)
    setup_s = time.perf_counter() - t0
    if not Path(gaugeset.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"gaugeset imported from {gaugeset.__file__}, not {SRC}")
    return setup_s


def _resolve(corpus, op):
    """Resolve the spec and cached schedules exactly as the op will ask."""
    if op.lib:
        corpus.corpus_get("G1")
        corpus.named_schedule("vh-origin")
        return
    command, entry = op.argv[0], op.argv[1]
    spec = corpus.corpus_get(entry)
    if command == "integrate":
        rec = spec.recommended[op.argv[3]]
        if "parts" in rec:
            corpus.named_parts(rec["parts"])
        else:
            corpus.named_schedule(rec["schedule"])
    elif command == "decompose":
        corpus.named_schedule(spec.recommended["henstock"]["schedule"])
        if "t55" in op.argv:
            corpus.named_schedule(spec.recommended["vh"]["schedule"])
    elif command == "varmeasure":
        corpus.named_schedule("uniform", levels=12)


def _write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return str(path)


def _invoke_cli(argv):
    from gaugeset import cli

    try:
        cli.main.main(args=argv, prog_name="gaugeset")
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


def _lib_build_primitive(op, seed, out_dir, ctx):
    from gaugeset import corpus, integrators

    spec = corpus.corpus_get("G1")
    gauge = corpus.named_schedule("vh-origin").levels[-1]
    phi = integrators.build_primitive(spec, gauge)
    ctx["phi"] = phi
    return _write_json(out_dir / "lib-build_primitive-G1.json", {
        "entry": "G1", "schedule": "vh-origin", "level": phi.level,
        "cells": int(phi.cells[0].size),
        "total": [float(v) for v in phi.node_value(0, 0)],
    })


def _lib_vh_check(op, seed, out_dir, ctx):
    from gaugeset import corpus, integrators

    spec = corpus.corpus_get("G1")
    report = integrators.vh_check(spec, ctx.pop("phi"), corpus.named_schedule("vh-origin"),
                                  mode="perron", tol=op.expect["vsum_below"], seed=seed)
    return _write_json(out_dir / "lib-vh_check-G1.json", report.to_json_dict(True))


_LIB = {"build_primitive": _lib_build_primitive, "vh_check": _lib_vh_check}


def run_op(op, seed, out_dir, ctx, cli_call):
    rec = {"name": op.name}
    t0 = time.perf_counter()
    try:
        if op.lib:
            rec["report"] = _LIB[op.lib](op, seed, out_dir, ctx)
        else:
            argv = list(op.argv) + ["--deterministic", "--seed", str(seed),
                                    "--out", str(out_dir)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rec["exit"] = cli_call(argv)
            for line in buf.getvalue().splitlines():
                key, _, value = line.partition(": ")
                if key in ("report", "table"):
                    rec[key] = value
    except Exception:  # an op that raises is a failed check, not a crash
        rec["error"] = traceback.format_exc()
    rec["wall_s"] = time.perf_counter() - t0
    return rec


def run_pass(workload, seed, pass_dir, tracer):
    pass_dir.mkdir(parents=True)
    cli_call = _invoke_cli
    if tracer is not None:
        tracer.install()
        cli_call = tracer.wrap("cli.command", _invoke_cli)
    ctx = {}
    records = []
    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for op in workload.ops:
            records.append(run_op(op, seed, pass_dir, ctx, cli_call))
    finally:
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        if tracer is not None:
            tracer.restore()
    out = {"pass_s": t1 - t0, "cpu_s": cpu1 - cpu0, "ops": records,
           "traced": tracer is not None}
    if tracer is not None:
        out["trace"] = {
            "root_s": tracer.root_s,
            "bookkeeping_s": tracer.bookkeeping_s,
            "layers": {name: {"calls": st.calls, "self_s": st.self_s, **st.counts}
                       for name, st in tracer.stats.items()},
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup_s = setup(workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracing import Tracer

    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, args.seed, args.out / f"pass{len(passes) + 1}", None))
        if len(passes) == 1:
            # peak over set-up and one pass, whatever the number of passes
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            passes.append(run_pass(workload, args.seed, args.out / f"pass{len(passes) + 1}",
                                   Tracer()))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > args.seconds:  # the next round would overrun
            break

    import numpy

    _write_json(args.out / "result.json", {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mib": peak_rss_mib,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
