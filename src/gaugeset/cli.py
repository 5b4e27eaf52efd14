"""Command-line front end: run experiments, write JSON + CSV reports.

Every command resolves an entry from the registry, runs the requested
check at the entry's recommended settings (overridable by flags or a JSON
config), writes a JSON report plus a CSV convergence table, and exits

    0  the verdict matches the entry's flag (or there is nothing to match)
    2  definitive mismatch
    3  numerically inconclusive

Reports are reproducible from config + seed; --deterministic zeroes wall
times so reruns are byte-identical.  GAUGESET_SEED overrides any seed.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click
from click.core import ParameterSource

from . import corpus as corpus_mod
from . import decomposition as dec
from . import integrators as it
from .errors import DepthExceeded, GaugeNotPositive, PackingTruncated
from .partitions import check_budget

# the RunConfig "settings" keys integrate reads; any other key is a usage error
_SETTINGS = ("method", "seed", "tol", "levels", "schedule")

# method -> (corpus flag key, verdict a yes flag wants, verdict a no flag wants)
_METHODS = {
    "henstock": ("henstock", "converged", "diverged"),
    "mcshane": ("mcshane", "converged", "diverged"),
    "birkhoff": ("birkhoff", "converged", "diverged"),
    "vh": ("vH", "converged", "diverged"),
    "vms": ("vMS", "converged", "diverged"),
    "hkp": ("hkp", "hkp-consistent", "not-hkp"),
}


def _entry(name, params=None):
    """Registry entry ``name`` with ``params``; a failed lookup is a usage error."""
    try:
        return corpus_mod.corpus_get(name, params)
    except ValueError as e:
        raise click.ClickException(str(e))


def _given(name):
    """True when option ``name`` was set on the command line, where it beats a RunConfig."""
    return click.get_current_context().get_parameter_source(name) is ParameterSource.COMMANDLINE


def _resolve_seed(seed, settings=None):
    """GAUGESET_SEED, else ``settings.seed``, else ``seed``: an integer >= 0."""
    env = os.environ.get("GAUGESET_SEED")
    if env is not None:
        source, value = "GAUGESET_SEED", env
        try:
            value = int(env)
        except ValueError:
            pass
    elif settings and "seed" in settings:
        source, value = '"settings.seed"', settings["seed"]
    else:
        return seed
    if not (type(value) is int and value >= 0):
        raise click.ClickException(f"{source} must be an integer >= 0, got {value!r}")
    return value


def _positive_tol(value, source):
    """A tolerance is a finite number > 0; anything else is a usage error."""
    try:
        tol = math.nan if isinstance(value, (bool, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise click.ClickException(f"{source} must be a finite number > 0, got {value!r}")
    return tol


def _load_config(path):
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise click.ClickException(f"cannot read config: {e}")
    if not isinstance(cfg, dict) or cfg.get("schema") != 1:
        raise click.ClickException('config must be a JSON object with "schema": 1')
    allowed = {"schema", "command", "entry", "params", "settings", "output"}
    unknown = set(cfg) - allowed
    if unknown:
        raise click.ClickException(f"unknown config keys: {sorted(unknown)}")
    if cfg.get("command", "integrate") != "integrate":
        raise click.ClickException(f'"command" must be "integrate", got {cfg["command"]!r}')
    settings = cfg.get("settings", {})
    if not isinstance(settings, dict):
        raise click.ClickException('"settings" must be an object')
    unread = [f'"settings.{k}"' for k in sorted(set(settings) - set(_SETTINGS))]
    if unread:
        raise click.ClickException(
            f"unknown settings keys: {', '.join(unread)}; known: {', '.join(_SETTINGS)}")
    output = cfg.get("output", {})
    if not (isinstance(output, dict) and isinstance(output.get("dir", ""), str)):
        raise click.ClickException('"output" must be an object with a string "dir"')
    return cfg


def _out_dir(out_dir):
    """Make out_dir, so that a place reports cannot go to fails before any run."""
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise click.ClickException(f"cannot write reports to {out_dir}: {e}")


def _write_reports(out_dir, stem, json_dict, csv_rows, deterministic):
    """Write ``stem``.json and .csv under out_dir; an unwritable place is a usage error."""
    out = Path(out_dir)
    json_path, csv_path = out / f"{stem}.json", out / f"{stem}.csv"
    payload = dict(json_dict, schema=1, deterministic=bool(deterministic))
    try:
        json_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        csv_path.write_text("\n".join(csv_rows) + "\n")
    except OSError as e:
        raise click.ClickException(f"cannot write reports to {out_dir}: {e}")
    return json_path, csv_path


def _schedule_for(entry, method, levels, config_settings):
    L = levels or config_settings.get("levels")
    if L is not None and not (type(L) is int and L >= 1):
        raise click.ClickException(f'"settings.levels" must be an integer >= 1, got {L!r}')
    if method == "birkhoff":
        if "schedule" in config_settings:  # birkhoff runs on partition chains
            raise click.ClickException('"settings.schedule" does not apply to birkhoff')
        parts_id = corpus_mod.recommendation(entry, method).get("parts", "dyadic-14")
        parts = corpus_mod.named_parts(parts_id)
        if L and L > len(parts):
            source = "--levels" if levels else '"settings.levels"'
            raise click.ClickException(
                f"{source} {L} is past the {len(parts)} levels of partition chain {parts_id}")
        return parts[:L] if L else parts
    schedule_id = config_settings.get("schedule")
    with _too_fine("range", levels=L):
        try:
            sched = corpus_mod.recommended_schedule(entry, method, schedule_id, L)
        except (TypeError, ValueError) as e:
            raise click.ClickException(f'"settings.schedule": {e}')
    with _too_fine("bisection"):  # a constant gauge too fine fails before level 1
        for g in sched.levels:
            check_budget(g)
    return sched


# the ways a schedule can be too fine: the errors that show it, and the message
_TOO_FINE = {
    "range": ((OverflowError, GaugeNotPositive),
              "{levels} levels are too fine: the gauge widths leave the floating-point range"),
    "bisection": (DepthExceeded, "the schedule is too fine for bisection: {e}"),
    # a packing cut short by its loop guard would give a wrong estimate
    "packing": (PackingTruncated, "the schedule is too fine for greedy packing: {e}"),
}


@contextmanager
def _too_fine(*ways, levels=None):
    """A schedule too fine in one of ``ways`` is a usage error, not a traceback."""
    try:
        yield
    except Exception as e:
        for kinds, message in map(_TOO_FINE.get, ways):
            if isinstance(e, kinds):
                raise click.ClickException(message.format(levels=levels, e=e))
        raise


def _tol_for(entry, method, tol, config_settings):
    if tol is not None:
        return _positive_tol(tol, "--tol")
    if "tol" in config_settings:
        return _positive_tol(config_settings["tol"], '"settings.tol"')
    return corpus_mod.recommendation(entry, method).get(
        "tol", it.DEFAULT_TOL_D1 if entry.d == 1 else it.DEFAULT_TOL_D2)


class _Context(click.Context):
    """Context whose usage errors exit 1: exit 2 reports a mismatch.

    The group's own parse errors and everything raised under its subcommands
    leave through the group's context, so this one hook covers them all.
    """

    def __exit__(self, exc_type, exc_value, tb):
        if isinstance(exc_value, click.UsageError):
            exc_value.exit_code = 1
        return super().__exit__(exc_type, exc_value, tb)


class _Main(click.Group):
    context_class = _Context


@click.group(cls=_Main)
def main():
    """Gauge integration of convex-set-valued maps on direction grids."""


@main.command()
@click.argument("entry")
@click.option("--method", type=click.Choice(sorted(_METHODS)), default="henstock")
@click.option("--tol", type=float, default=None, help="Override the entry tolerance.")
@click.option("--levels", type=click.IntRange(min=1), default=None,
              help="Override schedule length.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_dir", default="gaugeset-runs", show_default=True)
@click.option("--config", "config_path", default=None, help="RunConfig JSON (schema 1).")
@click.option("--deterministic", is_flag=True, help="Zero wall times for byte-identical reruns.")
def integrate(entry, method, tol, levels, seed, out_dir, config_path, deterministic):
    """Integrate ENTRY with one notion and match the verdict to its flag.

    Precedence: GAUGESET_SEED, then flags given on the command line, then
    the RunConfig, then the entry's recommendations and the defaults.
    """
    cfg = _load_config(config_path) if config_path else {}
    settings = cfg.get("settings", {})
    if cfg.get("entry", entry) != entry:
        raise click.ClickException(
            f'config "entry" {cfg["entry"]!r} differs from ENTRY {entry!r}')
    if not _given("method"):
        method = settings.get("method", method)
        if not (isinstance(method, str) and method in _METHODS):
            raise click.ClickException(
                f'"settings.method" must be one of {sorted(_METHODS)}, got {method!r}')
    seed = _resolve_seed(seed, {} if _given("seed") else settings)
    if not _given("out_dir"):
        out_dir = cfg.get("output", {}).get("dir", out_dir)
    spec = _entry(entry, cfg.get("params"))
    tol = _tol_for(spec, method, tol, settings)
    sched = _schedule_for(spec, method, levels, settings)
    _out_dir(out_dir)
    with _too_fine("bisection"):
        if method == "henstock":
            report = it.henstock_integrate(spec, sched, tol, seed=seed)
        elif method == "mcshane":
            report = it.mcshane_integrate(spec, sched, tol, seed=seed)
        elif method == "birkhoff":
            report = it.birkhoff_integrate(spec, sched, tol, seed=seed)
        elif method in ("vh", "vms"):
            phi = (spec.exact_primitive() if spec.exact_primitive
                   else it.build_primitive(spec, sched.levels[-1]))
            report = it.vh_check(spec, phi, sched,
                                 mode="perron" if method == "vh" else "free",
                                 tol=tol, seed=seed)
            report.flags["primitive"] = "exact" if spec.exact_primitive else "built"
        else:
            report = it.directional_profile(spec, sched, tol, seed=seed)

    stem = f"integrate-{spec.name}-{method}-s{seed}"
    jp, cp = _write_reports(out_dir, stem, report.to_json_dict(deterministic),
                            report.csv_rows(deterministic), deterministic)
    click.echo(f"verdict: {report.verdict}")
    click.echo(f"report: {jp}")
    click.echo(f"table: {cp}")

    flag_key, yes_verdict, no_verdict = _METHODS[method]
    flag = spec.flag(flag_key)
    if report.verdict == "inconclusive":
        sys.exit(3)
    if flag == "unknown":
        sys.exit(0)
    want = yes_verdict if flag == "yes" else no_verdict
    sys.exit(0 if report.verdict == want else 2)


def _parse_selection(token, spec):
    if token == "steiner":
        return dec.steiner_selection(spec)
    if token.startswith("argmax:"):
        u = token.split(":", 1)[1]
        try:
            return dec.argmax_selection(spec, u if spec.d == 1 else u.removeprefix("u"))
        except ValueError as e:
            raise click.ClickException(f"bad selection {token!r}: {e}")
    raise click.ClickException(
        f"unknown selection {token!r}; use steiner or argmax:<direction>")


@main.command()
@click.argument("entry")
@click.option("--selection", default="steiner", show_default=True,
              help="steiner or argmax:<direction> (+1/-1 in d=1, index in d=2).")
@click.option("--theorem", type=click.Choice(["t33", "t42", "t55"]), default="t33")
@click.option("--tol", type=float, default=None)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_dir", default="gaugeset-runs", show_default=True)
@click.option("--deterministic", is_flag=True)
def decompose(entry, selection, theorem, tol, seed, out_dir, deterministic):
    """Verify a decomposition theorem on ENTRY with a constructed selection."""
    spec = _entry(entry)
    seed = _resolve_seed(seed)
    tol = (corpus_mod.recommendation(spec, "henstock").get("tol", 1e-3) if tol is None
           else _positive_tol(tol, "--tol"))
    sel = _parse_selection(selection, spec)
    _out_dir(out_dir)
    report = dec.verify_decomposition(spec, sel, theorem, tol, seed=seed)
    gamma_rep = report.reports.get("gamma_henstock")
    stem = f"decompose-{spec.name}-{theorem}-s{seed}"
    jp, cp = _write_reports(out_dir, stem, report.to_json_dict(deterministic),
                            gamma_rep.csv_rows(deterministic), deterministic)
    click.echo(f"verdict: {report.verdict}"
               + (f" (expected {report.expected})" if report.expected else ""))
    click.echo(f"gap: {report.gap:.3e}")
    click.echo(f"report: {jp}")
    click.echo(f"table: {cp}")
    if report.expected is None or report.verdict == report.expected:
        sys.exit(0)
    sys.exit(2 if report.definitive else 3)


def _parse_set(token):
    """'0, 0.25:0.75' -> [(0.0, 0.0), (0.25, 0.75)]; a bad component is a usage error."""
    comps = []
    for part in filter(None, (p.strip() for p in token.split(","))):
        lo, _, hi = part.partition(":")
        try:
            lo, hi = float(lo), float(hi if ":" in part else lo)
            ok = math.isfinite(lo) and math.isfinite(hi) and lo <= hi
        except ValueError:
            ok = False
        if not ok:
            raise click.ClickException(
                f"bad --set component {part!r}: use a point t or an interval lo:hi "
                "with finite lo <= hi")
        comps.append((lo, hi))
    return comps


@main.command()
@click.argument("entry")
@click.option("--set", "set_token", required=True,
              help="Comma list of points and lo:hi intervals, e.g. '0' or '0.25:0.75'.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--levels", type=click.IntRange(min=1), default=None)
@click.option("--out", "out_dir", default="gaugeset-runs", show_default=True)
@click.option("--deterministic", is_flag=True)
def varmeasure(entry, set_token, seed, levels, out_dir, deterministic):
    """Estimate the variational measure of ENTRY's primitive on a set."""
    spec = _entry(entry)
    seed = _resolve_seed(seed)
    E = _parse_set(set_token)
    with _too_fine("range", levels=levels):
        sched = corpus_mod.named_schedule("uniform", levels=levels or 12)
    if not spec.exact_primitive:  # only a built primitive bisects
        with _too_fine("bisection"):
            for g in sched.levels:
                check_budget(g)
    _out_dir(out_dir)
    with _too_fine("bisection", "packing"):
        it.check_packing(E, sched)  # before the primitive is built
        phi = (spec.exact_primitive() if spec.exact_primitive
               else it.build_primitive(spec, sched.levels[-1]))
        result = it.variational_measure_estimate(phi, E, sched, seed=seed)
    result["entry"] = spec.name
    rows = [it.CSV_HEADER]
    rows += [f"{i + 1},{est!r},{est!r},0.000"
             for i, est in enumerate(result["estimates"])]
    stem = f"varmeasure-{spec.name}-s{seed}"
    jp, cp = _write_reports(out_dir, stem, result, rows, deterministic)
    click.echo(f"final: {result['final']:.6e} (approximate)")
    click.echo(f"report: {jp}")
    click.echo(f"table: {cp}")
    sys.exit(0)


@main.command("riemann-check")
@click.argument("entry")
@click.option("--set", "set_token", default="0:1", show_default=True)
@click.option("--delta", type=click.FloatRange(min=0, min_open=True), default=1e-3,
              show_default=True)
@click.option("--eps", type=float, default=0.05, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=12, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_dir", default="gaugeset-runs", show_default=True)
@click.option("--deterministic", is_flag=True)
def riemann_check(entry, set_token, delta, eps, trials, seed, out_dir, deterministic):
    """Riemann-measurability oscillation probe of ENTRY's Steiner selection."""
    if math.isnan(delta):
        raise click.BadParameter("nan is not a width", param_hint="'--delta'")
    eps = _positive_tol(eps, "--eps")
    spec = _entry(entry)
    seed = _resolve_seed(seed)
    comps = _parse_set(set_token)
    sel = dec.steiner_selection(spec)
    f = lambda ts: sel(ts)[:, 0]
    _out_dir(out_dir)
    result = dec.riemann_measurability_probe(f, comps, delta, trials=trials,
                                             eps=eps, seed=seed)
    result["entry"] = spec.name
    result["selection_component"] = 0
    rows = [it.CSV_HEADER,
            f"1,{result['plain_max']!r},{result['strong_max']!r},0.000"]
    stem = f"riemann-{spec.name}-s{seed}"
    jp, cp = _write_reports(out_dir, stem, result, rows, deterministic)
    click.echo(f"verdict: {result['verdict']} "
               f"(plain {result['plain_max']:.3e}, strong {result['strong_max']:.3e})")
    click.echo(f"report: {jp}")
    click.echo(f"table: {cp}")
    sys.exit(0)


@main.group()
def corpus():
    """Inspect the registry."""


@corpus.command("list")
def corpus_list():
    out = [corpus_mod.corpus_get(n).to_json_dict() for n in corpus_mod.corpus_names()]
    click.echo(json.dumps(out, sort_keys=True, indent=2))


@corpus.command("show")
@click.argument("name")
def corpus_show(name):
    click.echo(json.dumps(_entry(name).to_json_dict(), sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
