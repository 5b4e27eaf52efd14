"""gaugeset benchmark: CLI workloads timed from command to checked verdict.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process (worker.py) with BLAS thread pools pinned to one thread; set-up is
sampled in extra short-lived processes as well, because import time can only
be measured once per process.  This process checks every op's exit code,
verdict and estimate against the oracles in checks.py, hashes the
``--deterministic`` report files, and prints every metric by name and unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  ``--workload all`` runs every workload in turn and
prefixes metric names with the workload name.  Raw results are kept in
``.bench_out/<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op
from tracing import INTEGRATOR_FUNCTIONS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4  # extra set-up samples; the worker's own set-up is one more
DEADLINE_S = 170.0  # one workload's run must end within 180 s

END_TO_END = (
    ("pass_s", "s"),
    ("longest_check_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("corpus.eval_support.calls", "count"),
    ("corpus.eval_support.points", "count"),
    ("corpus.eval_support.self_s", "s"),
    ("corpus.eval_support.points_per_item", "ratio"),
    ("partitions.cousin_build.calls", "count"),
    ("partitions.cousin_build.cells", "count"),
    ("partitions.cousin_build.self_s", "s"),
    ("partitions.cousin_build.repeat_calls", "count"),
    ("partitions.cousin_build.repeat_share", "ratio"),
    ("partitions.measurable_partition.calls", "count"),
    ("partitions.measurable_partition.pieces", "count"),
    ("partitions.measurable_partition.self_s", "s"),
    ("partitions.refines.calls", "count"),
    ("partitions.refines.self_s", "s"),
    ("partitions.gauge_call.calls", "count"),
    ("partitions.gauge_call.points", "count"),
    ("partitions.gauge_call.self_s", "s"),
    ("partitions.gauge_call.points_per_call", "ratio"),
    *((f"integrators.{fn}.{k}", u) for fn in INTEGRATOR_FUNCTIONS
      for k, u in (("calls", "count"), ("self_s", "s"))),
    ("integrators.levels", "count"),
    ("integrators.level_items", "count"),
    ("convex_sets.primitive_build.calls", "count"),
    ("convex_sets.primitive_build.cells", "count"),
    ("convex_sets.primitive_build.self_s", "s"),
    ("convex_sets.query_batch.calls", "count"),
    ("convex_sets.query_batch.intervals", "count"),
    ("convex_sets.query_batch.self_s", "s"),
    ("decomposition.verify_decomposition.self_s", "s"),
    ("decomposition.subtract_selection.self_s", "s"),
    ("cli.command.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_s", "s"),
)

# ratio -> (numerator, base); printed together so every ratio has its base
RATIOS = {
    "corpus.eval_support.points_per_item":
        ("corpus.eval_support.points", "integrators.level_items"),
    "partitions.cousin_build.repeat_share":
        ("partitions.cousin_build.repeat_calls", "partitions.cousin_build.calls"),
    "partitions.gauge_call.points_per_call":
        ("partitions.gauge_call.points", "partitions.gauge_call.calls"),
}


def environment():
    """nproc, interpreter and code identity stamped on every result."""
    head = None
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        head = (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass  # a plain checkout has no .git; the source digest still identifies it
    code = hashlib.sha256()  # the program's and the benchmark's own sources
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        code.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_commit": head,
        "code_sha256": code.hexdigest()[:16],
    }


def _worker_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _worker(args, deadline):
    """Run worker.py to completion; stdout of the child is returned."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline reached")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=_worker_env(), capture_output=True,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return proc.stdout


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _op_digest(rec):
    h = hashlib.sha256()
    for key in ("report", "table"):
        if rec.get(key) and Path(rec[key]).is_file():
            h.update(Path(rec[key]).read_bytes())
    return h.hexdigest()


def _level_rows(node):
    """Every integrator level row (a dict with ``n_items``) in a report tree."""
    if isinstance(node, dict):
        if "n_items" in node:
            yield node
            return
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _level_rows(child)


def _layer_metrics(p, untraced_pass_s):
    """Per-layer metric values of one traced pass."""
    layers = p["trace"]["layers"]
    m = {}
    for name, _ in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if layer in layers:
            m[name] = layers[layer].get(key, 0)
    rows = []
    m["cli.report_bytes"] = 0
    for rec in p["ops"]:
        if rec.get("report"):
            rows += _level_rows(json.loads(Path(rec["report"]).read_text()))
        if "exit" in rec:  # written by the CLI, not by a library op
            m["cli.report_bytes"] += sum(Path(rec[k]).stat().st_size
                                         for k in ("report", "table") if rec.get(k))
    m["integrators.levels"] = len(rows)
    m["integrators.level_items"] = sum(r["n_items"] for r in rows)
    m["trace.overhead_s"] = p["pass_s"] - untraced_pass_s
    for name, (num, base) in RATIOS.items():
        m[name] = m.get(num, 0) / m[base] if m.get(base) else 0.0
    return {name: m.get(name, 0) for name, _ in PER_LAYER}


def _accounting(p):
    """(self times, bookkeeping, untraced gap, their sum, traced pass wall)."""
    t = p["trace"]
    self_sum = sum(layer["self_s"] for layer in t["layers"].values())
    gap = p["pass_s"] - t["root_s"]
    return (self_sum, t["bookkeeping_s"], gap, self_sum + t["bookkeeping_s"] + gap,
            p["pass_s"])


def run_workload(name, seed, seconds, trace, env):
    workload = WORKLOADS[name]
    record = OUT / f"{name}-s{seed}.json"
    reference = None  # op digests of an earlier run of this invocation, same code
    if record.is_file():
        earlier = json.loads(record.read_text())
        if earlier.get("env", {}).get("code_sha256") == env["code_sha256"]:
            reference = earlier.get("op_digests")
    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]

    def probe_setup():
        return json.loads(_worker(common + ["--setup-only"], deadline).splitlines()[-1])["setup_s"]

    try:
        # set-up samples before and after the passes, so they see the host
        # at more than one moment
        setups = [probe_setup() for _ in range(SETUP_PROBES // 2)]
        _worker(common + ["--trace", str(trace), "--out", str(run_dir)], deadline)
        raw = json.loads((run_dir / "result.json").read_text())
        setups += [raw["setup_s"]] + [probe_setup() for _ in range(SETUP_PROBES // 2)]
        result = _evaluate(workload, raw, setups, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace, env=env)
    record.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def _evaluate(workload, raw, setups, reference):
    """Check every op of every pass; collect metric samples and trace sums.

    Each op's report digest must match the same op in pass 1, and in an
    earlier run of the same invocation (workload, seed and code) when
    ``reference`` holds that run's digests.
    """
    passes = raw["passes"]
    first = [_op_digest(rec) for rec in passes[0]["ops"]]
    attempted = failed = 0
    failures, pass_digests = [], []
    for k, p in enumerate(passes, start=1):
        digests = [_op_digest(rec) for rec in p["ops"]]
        pass_digests.append(hashlib.sha256("".join(digests).encode()).hexdigest())
        for i, (op, rec, dig) in enumerate(zip(workload.ops, p["ops"], digests)):
            reasons = check_op(op, rec)
            if dig != first[i]:
                reasons.append("report digest differs from pass 1")
            if reference and dig != reference[i]:
                reasons.append("report digest differs from an earlier run")
            attempted += 1
            if reasons:
                failed += 1
                failures.append(f"pass {k} {op.name}: {'; '.join(reasons)}")
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    pass_s = [p["pass_s"] for p in untraced]
    samples = {
        "pass_s": pass_s,
        "longest_check_s": [max(r["wall_s"] for r in p["ops"]) for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "setup_s": setups,
        "peak_rss_mib": [raw["peak_rss_mib"]],
    }
    result = {
        "attempted": attempted, "failed": failed, "failures": failures,
        "digests": pass_digests, "op_digests": first,
        "python": raw["python"], "numpy": raw["numpy"],
        "ops": [[rec["name"], rec["wall_s"]] for rec in passes[0]["ops"]],
        "end_to_end": {name: samples[name] for name, _ in END_TO_END},
    }
    if traced:
        base = statistics.median(pass_s)
        layer_runs = [_layer_metrics(p, base) for p in traced]
        result["per_layer"] = {name: [m[name] for m in layer_runs] for name, _ in PER_LAYER}
        result["accounting"] = [_accounting(p) for p in traced]
        for k, (self_sum, book, gap, total, wall) in enumerate(result["accounting"], 1):
            attempted += 1
            if abs(total - wall) > 1e-6 * wall + 1e-6:
                failed += 1
                failures.append(f"traced pass {k}: self {self_sum:.6f} + bookkeeping "
                                f"{book:.6f} + gap {gap:.6f} != pass {wall:.6f}")
        result.update(attempted=attempted, failed=failed)
    return result


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result, env):
    """Human-readable lines for one workload; returns its metrics dict."""
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  seconds={result['seconds']}  trace={result['trace']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" numpy={result['numpy']}")
    for name, wall in result["ops"]:
        print(f"  op {wall:9.3f} s  {name}")
    digests = result["digests"]
    same = "identical" if len(set(digests)) == 1 else "DIFFERENT"
    print(f"digest: {digests[0]}  ({len(digests)} passes, {same})")
    for line in result["failures"]:
        print(f"FAILED {line}")
    print(f"failed_frac: {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    metrics = {}
    if result["trace"]:
        for name, unit in PER_LAYER:
            values = result["per_layer"][name]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            base = ""
            if name in RATIOS:
                num, den = RATIOS[name]
                base = f"  ({num} / base {den})"
            print(f"{name:48s} {_fmt(value):>14s} {unit}{base}")
        for self_sum, book, gap, total, wall in result["accounting"]:
            print(f"trace accounting: self {self_sum:.6f} + bookkeeping {book:.6f} "
                  f"+ gap {gap:.6f} = {total:.6f} s; traced pass {wall:.6f} s")
        return metrics
    for name, unit in END_TO_END:
        values = result["end_to_end"][name]
        q1, med, q3 = _quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:16s} {med:12.6g} {unit:4s} median of {len(values)} "
              f"(q1 {q1:.6g}, q3 {q3:.6g})")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gaugeset" / "__init__.py").is_file():
        print(f"error: no gaugeset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, env)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as e:
            print(f"error: workload {name}: {e}", file=sys.stderr)
            return 3
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in report(result, env).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
