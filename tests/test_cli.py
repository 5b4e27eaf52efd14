import json
import time

import pytest
from click.testing import CliRunner

from gaugeset import corpus, integrators
from gaugeset.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_integrate_g2_henstock_matches_flag(runner, tmp_path):
    res = runner.invoke(main, ["integrate", "G2", "--method", "henstock",
                               "--out", str(tmp_path), "--deterministic"])
    assert res.exit_code == 0, res.output
    assert "verdict: converged" in res.output
    rep = read_json(tmp_path / "integrate-G2-henstock-s0.json")
    assert rep["schema"] == 1
    assert rep["deterministic"] is True
    assert rep["estimate"] == [0.0, 0.5]
    assert all(lv["wall_ms"] == 0.0 for lv in rep["levels"])


# each method's corpus flag, and its verdicts on a "yes" and on a "no"
_FLAG_VERDICTS = {
    "henstock": ("henstock", "converged", "diverged"),
    "mcshane": ("mcshane", "converged", "diverged"),
    "birkhoff": ("birkhoff", "converged", "diverged"),
    "hkp": ("hkp", "hkp-consistent", "not-hkp"),
    "vh": ("vH", "converged", "diverged"),
    "vms": ("vMS", "converged", "diverged"),
}


@pytest.mark.parametrize("method", sorted(_FLAG_VERDICTS))
@pytest.mark.parametrize("entry", ["G1", "G2", "G3", "G4", "G5", "G6"])
def test_every_method_on_every_entry_gives_its_flag_verdict(runner, tmp_path, entry, method):
    # the entry's recommended settings; every one of these flags is yes or no
    key, yes, no = _FLAG_VERDICTS[method]
    flag = corpus.corpus_get(entry).flag(key)
    assert flag in ("yes", "no")
    res = runner.invoke(main, ["integrate", entry, "--method", method,
                               "--out", str(tmp_path), "--deterministic"])
    assert (res.exit_code, res.output.splitlines()[0]) == (
        0, f"verdict: {yes if flag == 'yes' else no}"), res.output


def test_integrate_csv_table(runner, tmp_path):
    res = runner.invoke(main, ["integrate", "G6", "--method", "henstock",
                               "--levels", "6", "--out", str(tmp_path),
                               "--deterministic"])
    assert res.exit_code == 0
    lines = (tmp_path / "integrate-G6-henstock-s0.csv").read_text().splitlines()
    assert lines[0] == "level,residual,max_dir_residual,wall_ms"
    assert len(lines) == 7


def test_integrate_divergence_matches_no_flag(runner, tmp_path):
    res = runner.invoke(main, ["integrate", "G1", "--method", "mcshane",
                               "--out", str(tmp_path), "--deterministic"])
    assert res.exit_code == 0, res.output
    assert "verdict: diverged" in res.output


def test_integrate_hkp_profile_not_hkp(runner, tmp_path):
    res = runner.invoke(main, ["integrate", "G3", "--method", "hkp",
                               "--levels", "8", "--out", str(tmp_path),
                               "--deterministic"])
    assert res.exit_code == 0, res.output
    rep = read_json(tmp_path / "integrate-G3-hkp-s0.json")
    assert rep["verdict"] == "not-hkp"
    assert "+1" in rep["per_direction"]["divergent"]


def test_integrate_inconclusive_exits_3(runner, tmp_path):
    res = runner.invoke(main, ["integrate", "G2", "--method", "henstock",
                               "--levels", "4", "--tol", "1e-9",
                               "--out", str(tmp_path)])
    assert res.exit_code == 3


def test_integrate_definitive_mismatch_exits_2(runner, tmp_path):
    # G1 carries a yes-flag for henstock, but uniform gauges cannot tame the
    # origin: the run diverges and contradicts the flag definitively
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "command": "integrate", "entry": "G1",
        "settings": {"method": "henstock", "schedule": "uniform"},
    }))
    res = runner.invoke(main, ["integrate", "G1", "--config", str(cfg),
                               "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output


def test_integrate_unknown_entry_is_usage_error(runner, tmp_path):
    res = runner.invoke(main, ["integrate", "G9", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "unknown corpus entry" in res.output


def test_config_schema_rejected(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema": 2, "entry": "G2"}))
    res = runner.invoke(main, ["integrate", "G2", "--config", str(cfg)])
    assert res.exit_code == 1
    assert '"schema": 1' in res.output


def test_config_unknown_keys_rejected(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema": 1, "entry": "G2", "extra": True}))
    res = runner.invoke(main, ["integrate", "G2", "--config", str(cfg)])
    assert res.exit_code == 1
    assert "unknown config keys" in res.output


def test_config_overrides_entry_and_settings(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "command": "integrate", "entry": "G6",
        "settings": {"method": "henstock", "levels": 6, "seed": 4},
        "output": {"dir": str(tmp_path / "sub")},
    }))
    res = runner.invoke(main, ["integrate", "G6", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "sub" / "integrate-G6-henstock-s4.json").exists()


def _flags_and_config(tmp_path, entry):
    """integrate G2 with four flags against a config that sets each of them too."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "entry": entry,
        "settings": {"method": "henstock", "levels": 2, "seed": 4},
        "output": {"dir": str(tmp_path / "cfg-out")},
    }))
    return ["integrate", "G2", "--method", "mcshane", "--levels", "3", "--seed", "1",
            "--config", str(cfg), "--out", str(tmp_path / "flag-out"), "--deterministic"]


def test_config_entry_differing_from_entry_is_usage_error(runner, tmp_path):
    res = runner.invoke(main, _flags_and_config(tmp_path, "G6"))
    assert res.exit_code == 1, res.output
    assert "'G6'" in res.output and "'G2'" in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_command_line_flags_beat_config(runner, tmp_path):
    res = runner.invoke(main, _flags_and_config(tmp_path, "G2"))
    assert res.exit_code == 3, res.output  # three uniform levels do not settle G2 to 1e-3
    assert not (tmp_path / "cfg-out").exists()
    report = json.loads((tmp_path / "flag-out" / "integrate-G2-mcshane-s1.json").read_text())
    assert (report["method"], report["seed"]) == ("mcshane-plain", 1)
    assert report["schedule"]["levels"] == 3


def test_env_seed_beats_flag_and_config(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("GAUGESET_SEED", "7")
    res = runner.invoke(main, _flags_and_config(tmp_path, "G2"))
    assert res.exit_code == 3, res.output  # three uniform levels do not settle G2 to 1e-3
    assert (tmp_path / "flag-out" / "integrate-G2-mcshane-s7.json").exists()


def test_env_seed_override(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("GAUGESET_SEED", "7")
    res = runner.invoke(main, ["integrate", "G6", "--method", "henstock",
                               "--levels", "5", "--seed", "0",
                               "--out", str(tmp_path), "--deterministic"])
    assert res.exit_code == 0
    assert (tmp_path / "integrate-G6-henstock-s7.json").exists()


@pytest.mark.parametrize("command", [
    ["integrate", "G6", "--method", "henstock", "--levels", "2"],
    ["decompose", "G6"],
])
def test_env_seed_not_an_integer_is_usage_error(runner, tmp_path, monkeypatch, command):
    monkeypatch.setenv("GAUGESET_SEED", "abc")
    res = runner.invoke(main, command + ["--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "GAUGESET_SEED" in res.output
    assert "'abc'" in res.output
    assert not isinstance(res.exception, ValueError)
    assert not list(tmp_path.iterdir())


def test_deterministic_reruns_byte_identical(runner, tmp_path):
    args = ["integrate", "G2", "--method", "mcshane", "--levels", "8",
            "--tol", "1e-3", "--deterministic"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    for name in ("integrate-G2-mcshane-s0.json", "integrate-G2-mcshane-s0.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_decompose_g2_exit_0(runner, tmp_path):
    res = runner.invoke(main, ["decompose", "G2", "--selection", "steiner",
                               "--theorem", "t33", "--out", str(tmp_path),
                               "--deterministic"])
    assert res.exit_code == 0, res.output
    assert "verdict: holds (expected holds)" in res.output
    rep = read_json(tmp_path / "decompose-G2-t33-s0.json")
    assert rep["verdict"] == "holds"
    assert rep["gap"] < 1e-4


def test_decompose_t55_g2_end_to_end(runner, tmp_path):
    args = ["decompose", "G2", "--selection", "steiner", "--theorem", "t55",
            "--deterministic"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    res = runner.invoke(main, args + ["--out", str(out1)])
    assert res.exit_code == 0, res.output
    assert "verdict: holds (expected holds)" in res.output
    rep = read_json(out1 / "decompose-G2-t55-s0.json")
    assert rep["verdict"] == "holds"
    assert [c["name"] for c in rep["clauses"]] == [
        "gamma_henstock", "remainder_mcshane", "selection_component_0",
        "additivity_gap", "gamma_vh", "selection_vh", "remainder_vh",
        "remainder_birkhoff"]
    assert all(c["pass"] for c in rep["clauses"])
    # Steiner point of [0, t] is t/2, whose integral over [0, 1] is 1/4
    [f_integral] = rep["reports"]["selection_component_0"]["estimate"]
    assert abs(f_integral - 0.25) < 1e-4

    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    for name in ("decompose-G2-t55-s0.json", "decompose-G2-t55-s0.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_decompose_argmax_selection_token(runner, tmp_path):
    res = runner.invoke(main, ["decompose", "G2", "--selection", "argmax:+1",
                               "--theorem", "t33", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


def test_decompose_bad_selection_token(runner, tmp_path):
    res = runner.invoke(main, ["decompose", "G2", "--selection", "median",
                               "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "unknown selection" in res.output


def test_varmeasure_interval(runner, tmp_path):
    res = runner.invoke(main, ["varmeasure", "G6", "--set", "0:0.5",
                               "--levels", "8", "--out", str(tmp_path),
                               "--deterministic"])
    assert res.exit_code == 0, res.output
    rep = read_json(tmp_path / "varmeasure-G6-s0.json")
    assert rep["approximate"] is True
    assert abs(rep["final"] - 0.5) < 0.01
    assert rep["set"] == [[0.0, 0.5]]


def test_varmeasure_point_list(runner, tmp_path):
    res = runner.invoke(main, ["varmeasure", "G6", "--set", "0.25,0.75",
                               "--levels", "10", "--out", str(tmp_path)])
    assert res.exit_code == 0
    rep = read_json(tmp_path / "varmeasure-G6-s0.json")
    assert rep["final"] < 0.01


@pytest.mark.parametrize("args", [["varmeasure", "G2", "--levels", "4"],
                                  ["riemann-check", "G2", "--trials", "3"]])
def test_two_spellings_of_a_set_give_one_report(runner, tmp_path, args):
    reports = []
    for k, token in enumerate(["0.25:0.5,0.4:0.75,0.75", "0.25:0.75"]):
        out = tmp_path / str(k)
        res = runner.invoke(main, args + ["--set", token, "--out", str(out),
                                          "--deterministic"])
        assert res.exit_code == 0, res.output
        reports.append([p.read_bytes() for p in sorted(out.iterdir())])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["varmeasure", "riemann-check"])
@pytest.mark.parametrize("token", ["abc", "0.75:0.25", "0.2:x", "nan", "0:inf"])
def test_set_syntax_error_is_usage_error(runner, tmp_path, command, token):
    res = runner.invoke(main, [command, "G2", "--set", f"0.1,{token}",
                               "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert repr(token) in res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, option", [
    (["integrate", "G2", "--levels", "-1"], "--levels"),
    (["integrate", "G2", "--levels", "0"], "--levels"),
    (["integrate", "G2", "--method", "birkhoff", "--levels", "-1"], "--levels"),
    (["varmeasure", "G2", "--set", "0.5", "--levels", "-2"], "--levels"),
    (["riemann-check", "G2", "--delta", "0"], "--delta"),
    (["riemann-check", "G2", "--delta", "-1"], "--delta"),
    (["riemann-check", "G2", "--delta", "nan"], "--delta"),
    (["riemann-check", "G2", "--trials", "0"], "--trials"),
    (["integrate", "G2", "--tol", "0"], "--tol"),
    (["integrate", "G2", "--tol", "nan"], "--tol"),
    (["decompose", "G2", "--tol", "-1"], "--tol"),
    (["decompose", "G2", "--tol", "inf"], "--tol"),
    (["integrate", "G2", "--seed", "-1"], "--seed"),
    (["riemann-check", "G2", "--eps", "nan"], "--eps"),
    (["riemann-check", "G2", "--eps", "-1"], "--eps"),
    (["riemann-check", "G2", "--eps", "0"], "--eps"),
    (["riemann-check", "G2", "--eps", "inf"], "--eps"),
])
def test_out_of_range_option_is_usage_error(runner, tmp_path, args, option):
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert option in res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    # too fine for the bisection budget at level 20 (a built primitive: at once)
    (["integrate", "G2", "--method", "henstock", "--levels", "60"],
     "too fine for bisection: active cell count 8388608 exceeds budget at depth 23"),
    (["integrate", "G3", "--method", "vh", "--levels", "60"], "too fine for bisection"),
    (["varmeasure", "G3", "--set", "0", "--levels", "60"], "too fine for bisection"),
    # widths base / 2^n past the float range
    (["integrate", "G2", "--method", "henstock", "--levels", "1100"],
     "1100 levels are too fine"),
    (["integrate", "G1", "--method", "henstock", "--levels", "2000"],
     "2000 levels are too fine"),
    (["varmeasure", "G2", "--set", "0", "--levels", "1100"], "1100 levels are too fine"),
    # birkhoff runs on a partition chain of fixed length
    (["integrate", "G2", "--method", "birkhoff", "--levels", "20"],
     "--levels 20 is past the 14 levels of partition chain dyadic-14"),
    # a constant gauge past the budget fails before level 1, also where the
    # run would have diverged at an earlier level
    (["integrate", "G3", "--method", "henstock", "--levels", "60"],
     "too fine for bisection: active cell count 8388608 exceeds budget at depth 23"),
    (["integrate", "G1", "--method", "mcshane", "--levels", "60"],
     "too fine for bisection: active cell count 8388608 exceeds budget at depth 23"),
    (["integrate", "G5", "--method", "vms", "--levels", "60"],
     "too fine for bisection: active cell count 8388608 exceeds budget at depth 23"),
    # the packing guard would cut every packing of the interval at level 18
    (["varmeasure", "G2", "--set", "0.25:0.75", "--levels", "18"],
     "too fine for greedy packing: level 18: a greedy packing of [0.25, 0.75] cannot reach"),
])
def test_levels_too_fine_is_usage_error(runner, tmp_path, args, message):
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: ") and res.output.count("\n") == 1
    assert message in res.output
    assert not list(tmp_path.iterdir())


def test_packing_too_fine_below_1e_12_fails_before_any_walk(runner, tmp_path, monkeypatch):
    # delta_38 = 2^-40 < 1e-12 moves t by at most 2e-12 a step, so 200000 steps
    # stop short of 5e-7; undecided, the run walked 16 x 200000 steps at level
    # 38 (about 20 s) before failing.  The ends print by repr, not as [0.5, 0.5]
    def walk(*args):
        raise AssertionError("a packing was walked")

    monkeypatch.setattr(integrators, "_pack_values", walk)
    t0 = time.perf_counter()
    res = runner.invoke(main, ["varmeasure", "G2", "--set", "0.5:0.5000005", "--levels", "38",
                               "--out", str(tmp_path)])
    assert time.perf_counter() - t0 < 3.0
    assert res.exit_code == 1 and res.output.count("\n") == 1
    assert res.output == ("Error: the schedule is too fine for greedy packing: level 38: a greedy "
                          "packing of [0.5, 0.5000005] cannot reach its end in 200000 steps of "
                          "gauge 9.09495e-13\n")
    assert not list(tmp_path.iterdir())


def test_packing_whose_t_stops_is_an_error_not_a_zero(runner, tmp_path):
    # from level 52 (delta 2^-54) the gauge is within half an ulp of 0.5: a lane's t stops at its
    # first kept item.  This printed final: 0.000000e+00 and exited 0
    res = runner.invoke(main, ["varmeasure", "G2", "--set", "0.5:0.50000000000001",
                               "--levels", "56", "--out", str(tmp_path)])
    assert res.exit_code == 1 and res.output.count("\n") == 1
    assert res.output == ("Error: the schedule is too fine for greedy packing: level 52: a "
                          "greedy packing of [0.5, 0.50000000000001] stopped short: its gauge "
                          "no longer moves t forward\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["integrate", "G6", "--levels", "2"],
    ["decompose", "G6"],
    ["varmeasure", "G2", "--set", "0.25:0.75", "--levels", "2"],
    ["riemann-check", "G2", "--trials", "2"],
])
@pytest.mark.parametrize("under", [False, True])
def test_unwritable_out_is_usage_error(runner, tmp_path, args, under):
    # --out names a file (mkdir: FileExistsError) or a path under one (NotADirectoryError)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: cannot write reports to ")
    assert res.output.count("\n") == 1
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("args", [
    ["integrate", "G6", "--levels", "2"],
    ["integrate", "G1", "--method", "vh", "--levels", "2"],
    ["decompose", "G1", "--theorem", "t55"],
    ["varmeasure", "G1", "--set", "0", "--levels", "2"],
    ["riemann-check", "G2", "--trials", "2"],
])
def test_unwritable_out_fails_before_any_run(runner, tmp_path, monkeypatch, args):
    from gaugeset import decomposition, integrators

    def ran(*a, **k):
        raise AssertionError("an integrator ran")

    for mod, name in [(integrators, "henstock_integrate"), (integrators, "build_primitive"),
                      (integrators, "vh_check"), (integrators, "variational_measure_estimate"),
                      (decomposition, "verify_decomposition"),
                      (decomposition, "riemann_measurability_probe")]:
        monkeypatch.setattr(mod, name, ran)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    res = runner.invoke(main, args + ["--out", str(blocker / "sub")])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: cannot write reports to ")
    assert res.output.count("\n") == 1


def test_varmeasure_exact_primitive_is_not_budget_checked(runner, tmp_path):
    # G2's primitive is exact, so no level bisects: 60 levels pack as usual
    res = runner.invoke(main, ["varmeasure", "G2", "--set", "0", "--levels", "60",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    est = json.loads((tmp_path / "varmeasure-G2-s0.json").read_text())["estimates"]
    assert len(est) == 60


@pytest.mark.parametrize("levels", [0, -3, 2.5, "4", True, False, 15])
def test_config_levels_out_of_range_is_usage_error(runner, tmp_path, levels):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "entry": "G2",
                               "settings": {"method": "birkhoff", "levels": levels}}))
    res = runner.invoke(main, ["integrate", "G2", "--config", str(cfg),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert "settings.levels" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, name", [
    ({"settings": {"method": "banana"}}, "settings.method"),
    ({"settings": {"tol": "abc"}}, "settings.tol"),
    ({"settings": {"tol": 0}}, "settings.tol"),
    ({"settings": {"seed": "x"}}, "settings.seed"),
    ({"settings": {"seed": -1}}, "settings.seed"),
    ({"settings": {"schedule": "nope"}}, "settings.schedule"),
    ({"settings": {"method": "mcshane", "mode": "banana"}}, "settings.mode"),
    ({"output": "x"}, "output"),
    ({"settings": {"method": "birkhoff", "schedule": "nope"}}, "settings.schedule"),
    ({"settings": {"tols": 5}}, "settings.tols"),
    ({"command": "decompose"}, "command"),
    ({"params": {"a": 3}}, "params"),
    ({"settings": {"tol": True}}, "settings.tol"),
    ({"settings": {"tol": "1e-3"}}, "settings.tol"),
    ({"settings": {"tol": 10 ** 400}}, "settings.tol"),  # an int past the float range
])
def test_config_value_is_usage_error(runner, tmp_path, cfg, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "entry": "G2", **cfg}))
    res = runner.invoke(main, ["integrate", "G2", "--config", str(path),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert name in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry, token", [
    ("G2", "argmax:abc"), ("G2", "argmax:u"), ("G2", "argmax:u5"), ("G2", "argmax:2"),
    ("G4", "argmax:99"),
])
def test_bad_selection_direction_is_usage_error(runner, tmp_path, entry, token):
    res = runner.invoke(main, ["decompose", entry, "--selection", token,
                               "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert repr(token) in res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [["--bogus"], []])
def test_group_usage_error_exits_1(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 1, res.output
    assert "Usage:" in res.output


def test_varmeasure_set_outside_unit_interval_is_empty(runner, tmp_path):
    res = runner.invoke(main, ["varmeasure", "G2", "--set", "1.5", "--levels", "4",
                               "--out", str(tmp_path), "--deterministic"])
    assert res.exit_code == 0, res.output
    rep = read_json(tmp_path / "varmeasure-G2-s0.json")
    assert rep["set"] == []
    assert rep["final"] == 0.0


def test_riemann_check_reports_both_stats(runner, tmp_path):
    res = runner.invoke(main, ["riemann-check", "G2", "--set", "0:1",
                               "--delta", "1e-4", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rep = read_json(tmp_path / "riemann-G2-s0.json")
    assert rep["strong_max"] >= rep["plain_max"]
    assert rep["verdict"] == "pass"  # steiner selection of [0, t] is t/2


def test_corpus_list_and_show(runner):
    res = runner.invoke(main, ["corpus", "list"])
    assert res.exit_code == 0
    entries = json.loads(res.output)
    assert [e["name"] for e in entries] == ["G1", "G2", "G3", "G4", "G5", "G6"]

    res = runner.invoke(main, ["corpus", "show", "G6"])
    assert res.exit_code == 0
    spec = json.loads(res.output)
    assert spec["flags"]["mcshane"]["value"] == "yes"

    res = runner.invoke(main, ["corpus", "show", "G9"])
    assert res.exit_code == 1
