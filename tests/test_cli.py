"""Command-line interface: subcommands, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from winavc.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, cli_main


@pytest.fixture
def bitflip_config(tmp_path):
    doc = {
        "alphabets": {"x": 2, "s": 2, "y": 2},
        "channel": [[1, 0], [0, 1], [0, 1], [1, 0]],
        "gamma": [{"coeffs": [0, 1], "bound": 0.2}],
        "lambda": [{"coeffs": [0, 1], "bound": 0.1}],
        "windows": {"w_x": 64, "w_s": 64},
        "n": 512,
    }
    path = tmp_path / "bitflip.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def experiment_config(tmp_path):
    doc = {
        "alphabets": {"x": 2, "s": 2, "y": 2},
        "channel": [[1, 0], [0, 1], [0, 1], [1, 0]],
        "gamma": [{"coeffs": [0, 1], "bound": 0.3}],
        "lambda": [{"coeffs": [0, 1], "bound": 0.05}],
        "windows": {"w_x": 64, "w_s": 64},
        "code": {
            "layout": "thm1", "n1": 256, "message_bits": 3, "field_bits": 3,
            "p_x": {"weight": 0.1}, "key_len": 64,
        },
        "jammer": {"kind": "iid"},
        "trials": 20,
        "seed": 3,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_capacity_prints_value(bitflip_config, capsys):
    assert cli_main(["capacity", "--config", bitflip_config]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.357751" in out


def test_capacity_json_format(bitflip_config, capsys):
    assert cli_main(["capacity", "--config", bitflip_config, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["c_list"] == pytest.approx(0.3578, abs=1e-3)
    assert doc["lower"] <= doc["c_list"] <= doc["upper"]
    assert doc["verdict"] == "equals_Clist_thm1"


def test_capacity_status_names_the_step_cap(tmp_path, capsys, monkeypatch):
    # a seeded ternary channel: certified within the real cap, not within 3 steps
    table = np.random.default_rng(0).dirichlet(np.ones(3), size=9)
    doc = {"alphabets": {"x": 3, "s": 3, "y": 3}, "channel": table.tolist(),
           "gamma": [{"coeffs": [0, 1, 1], "bound": 0.6}],
           "lambda": [{"coeffs": [0, 1, 1], "bound": 0.3}]}
    path = tmp_path / "ternary.json"
    path.write_text(json.dumps(doc))
    argv = ["capacity", "--config", str(path), "--format", "json"]
    assert cli_main(argv) == EXIT_OK
    done = json.loads(capsys.readouterr().out)
    assert done["status"] == "ok" and done["upper"] - done["lower"] <= 1e-6
    monkeypatch.setattr("winavc.capacity._SADDLE_MAX_ITER", 3)
    assert cli_main(argv) == EXIT_OK
    capped = json.loads(capsys.readouterr().out)
    assert capped["status"] == "step-cap" and capped["upper"] - capped["lower"] > 1e-6
    assert capped["lower"] <= done["c_list"] <= capped["upper"]


@pytest.mark.parametrize("doc", [None, {"alphabets": 3}, [1, 2]],
                         ids=["missing", "int-alphabets", "list"])
@pytest.mark.parametrize("command", ["capacity", "symmetrize", "simulate"])
def test_missing_config_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "cfg.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    assert cli_main([command, "--config", str(path)]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_capacity_channel_only_document(bitflip_config, tmp_path, capsys):
    # no windows, n or code section: the parser's defaults apply
    full = json.loads(Path(bitflip_config).read_text())
    doc = {k: full[k] for k in ("alphabets", "channel", "gamma", "lambda")}
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["capacity", "--config", str(path), "--format", "json"]) == EXIT_OK
    bare = json.loads(capsys.readouterr().out)
    assert cli_main(["capacity", "--config", bitflip_config, "--format", "json"]) == EXIT_OK
    assert bare["c_list"] == json.loads(capsys.readouterr().out)["c_list"]


@pytest.mark.parametrize("argv", [
    ["capacity", "--seed", "1"],
    ["symmetrize", "--threads", "2"],
    ["check-windows", "--seed", "1"],
    ["sweep", "--threads", "2"],
    ["simulate", "--threads", "2"],
])
def test_seed_and_threads_only_where_read(bitflip_config, argv, capsys):
    assert cli_main(argv + ["--config", bitflip_config]) == EXIT_USAGE
    capsys.readouterr()


def test_bad_usage_exits_1(capsys):
    assert cli_main(["not-a-command"]) == EXIT_USAGE
    assert cli_main([]) == EXIT_USAGE
    capsys.readouterr()


def test_symmetrize_check(bitflip_config, capsys):
    code = cli_main([
        "symmetrize", "--config", bitflip_config, "--px", "0.9,0.1",
        "--format", "json",
    ])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["residual"] <= 1e-7


def test_symmetrize_scan(bitflip_config, capsys):
    code = cli_main(["symmetrize", "--config", bitflip_config, "--scan",
                     "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    # w = 0.2 > p = 0.1: the heaviest admissible inputs are non-symmetrizable
    assert doc["all_symmetrizable"] is False
    assert doc["exact"] is True
    assert doc["witness"][1] > 0.1
    assert cli_main(["symmetrize", "--config", bitflip_config, "--scan"]) == EXIT_OK
    assert capsys.readouterr().out == "all_symmetrizable,exact,status\nFalse,True,ok\n"
    assert cli_main(["symmetrize", "--config", bitflip_config, "--scan",
                     "--resolution", "5"]) == EXIT_USAGE
    capsys.readouterr()


def test_symmetrize_scan_solver_failure_exits_3(tmp_path, capsys):
    # an LP whose simplex ends at an infeasible point is a runtime error, not
    # a config error about a law that does not sum to 1
    table = [0.5, 1, 1, 1, 1, 1, 1, 0.25, 1, 1, 1, 1]
    rows = [[table[i] / (table[i] + table[i + 1]), table[i + 1] / (table[i] + table[i + 1])]
            for i in range(0, 12, 2)]
    doc = {
        "alphabets": {"x": 2, "s": 3, "y": 2},
        "channel": rows,
        "gamma": [{"coeffs": [0, 1], "bound": 1}],
        "lambda": [{"coeffs": [-9.37525e-7, 1, 0], "bound": -9.37525e-7}],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["symmetrize", "--config", str(path), "--scan"]) == EXIT_RUNTIME
    assert "infeasible point" in capsys.readouterr().err


def test_check_windows(tmp_path, capsys):
    doc = {
        "sequence": [1, 1, 0, 0, 0, 0, 0, 0],
        "window": 4,
        "dim": 2,
        "constraints": [{"coeffs": [0, 1], "bound": 0.25}],
    }
    path = tmp_path / "win.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["check-windows", "--config", str(path), "--format", "json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert out["violations"][0]["start"] == 0


def test_check_windows_rejects_non_integer_symbols(tmp_path, capsys):
    # truncating [0.6, 1.9] to [0, 1] would report a valid sequence
    doc = {
        "sequence": [0.6, 1.9, 0, 0],
        "window": 2,
        "dim": 2,
        "constraints": [{"coeffs": [0, 1], "bound": 0.5}],
    }
    path = tmp_path / "win.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["check-windows", "--config", str(path), "--format", "json"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "integers" in captured.err
    assert captured.out == ""


def test_simulate_runs(experiment_config, capsys):
    assert cli_main(["simulate", "--config", experiment_config]) == EXIT_OK
    out = capsys.readouterr().out
    assert "err_avg" in out.splitlines()[0]


def test_simulate_seed_override(experiment_config, capsys):
    assert cli_main(["simulate", "--config", experiment_config, "--seed", "99",
                     "--format", "json"]) == EXIT_OK
    first = json.loads(capsys.readouterr().out)
    assert cli_main(["simulate", "--config", experiment_config, "--seed", "99",
                     "--format", "json"]) == EXIT_OK
    second = json.loads(capsys.readouterr().out)
    assert first == second


@pytest.mark.parametrize("code_edit, named", [
    ({"layout": "thm3"}, "thm3"),
    ({"key_len": -5}, "key code length"),
    ({"layout": "thm2", "t1": {"weight": 0.3}, "t2": {"weight": 0.1},
      "key_len": -5}, "key code length"),
    ({"field_bits": 0}, "field_bits"),
    ({"field_bits": 9}, "field_bits"),
    ({"n1": 512.5}, "code.n1"),
    ({"message_bits": 2.5}, "code.message_bits"),
    ({"key_len": 100.5}, "code.key_len"),
    ({"field_bits": 6.5}, "code.field_bits"),
    ({"delta": 0.02}, "delta"),
    ({"l_max": 32}, "l_max"),
    ({"guard_denominator": 8}, "guard_denominator"),
    ({"guard_type": {"weight": 0.25}}, "guard_type"),
    ({"budget_extra": 0}, "budget_extra"),
    ({"max_messages": 16384}, "max_messages"),
    ({"w_x": 32}, "w_x"),
    ({"alpha": 0.5}, "alpha"),
    *[({"layout": "thm2", "t1": {"weight": 0.25}, "t2": {"weight": 0.125},
        "lam_frac": lam_frac}, "lam_frac") for lam_frac in (0, -0.1, -1.0)],
    ({"t1": {"weight": 0.25}}, "does not read t1"),
    ({"t2": {"weight": 0.125}}, "does not read t2"),
    ({"lam_frac": 0.25}, "does not read lam_frac"),
    ({"layout": "thm2", "t1": {"weight": 0.25}, "t2": {"weight": 0.125},
      "lam_frac": 0.25, "key_type": {"weight": 0.12}}, "does not read key_type"),
], ids=["unknown-layout", "thm1-negative-key-len", "thm2-negative-key-len",
        "field-bits-0", "field-bits-9", "n1-fraction", "message-bits-fraction",
        "key-len-fraction", "field-bits-fraction", "removed-delta", "removed-l-max",
        "removed-guard-denominator", "removed-guard-type", "removed-budget-extra",
        "removed-max-messages", "removed-w-x", "removed-alpha",
        "thm2-lam-frac-0", "thm2-lam-frac-negative", "thm2-lam-frac-minus-1",
        "thm1-t1", "thm1-t2", "thm1-lam-frac", "thm2-key-type"])
def test_simulate_bad_layout_exits_2(experiment_config, capsys, code_edit, named):
    doc = json.loads(Path(experiment_config).read_text())
    doc["code"].update(code_edit)
    Path(experiment_config).write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", experiment_config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("edit, named", [
    ({"trials": 3.9}, "trials"),
    ({"seed": 3.5}, "seed"),
    ({"windows": {"w_x": 64, "w_s": 64.5}}, "windows.w_s"),
    ({"n": 384.5}, "n"),
    ({"alphabets": {"x": 2, "s": 2.5, "y": 2}}, "alphabets.s"),
    ({"jammer": {"kind": "iid", "rejection_cap": 100.5}}, "jammer.rejection_cap"),
], ids=["trials", "seed", "w-s", "n", "alphabet", "rejection-cap"])
def test_simulate_non_integer_key_exits_2(experiment_config, capsys, edit, named):
    doc = json.loads(Path(experiment_config).read_text())
    doc.update(edit)
    Path(experiment_config).write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", experiment_config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert f"{named} must be an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("sizes", [{"x": 2, "s": 2, "y": -1}, {"x": 2, "s": 0, "y": 2}],
                         ids=["y-negative", "s-zero"])
def test_capacity_alphabet_size_below_1_exits_2(bitflip_config, capsys, sizes):
    # the channel table's shape comes from the sizes: y = -1 would let numpy infer it
    doc = json.loads(Path(bitflip_config).read_text())
    doc["alphabets"] = sizes
    Path(bitflip_config).write_text(json.dumps(doc))
    assert cli_main(["capacity", "--config", bitflip_config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "alphabet sizes must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("cap", [0, -3])
def test_simulate_rejection_cap_below_1_exits_2(experiment_config, capsys, cap):
    # a cap of 0 never draws a state sequence, so every trial would be forfeited
    doc = json.loads(Path(experiment_config).read_text())
    doc["jammer"]["rejection_cap"] = cap
    Path(experiment_config).write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", experiment_config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "jammer.rejection_cap must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("edit, named", [
    ({"jammer": {"kind": "iid", "p_s": [0.9, 0.05, 0.05]}, "trials": 3}, "jammer.p_s"),
    ({"windows": {"w_x": 64, "w_s": 1024}, "n": 2048}, "windows.w_s = 1024"),
    # y = x + s mod 3 on binary states: a codeword symbol 2 names no state
    ({"alphabets": {"x": 3, "s": 2, "y": 3},
      "channel": [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1], [1, 0, 0]],
      "gamma": [{"coeffs": [0, 1, 1], "bound": 0.3}],
      "code": {"layout": "thm1", "n1": 256, "message_bits": 3, "field_bits": 3,
               "p_x": [0.9, 0, 0.1], "key_len": 64},
      "jammer": {"kind": "spoof"}}, "alphabets.x = 3 is larger than alphabets.s = 2"),
], ids=["p-s-size", "w-s-longer-than-transmission", "spoof-with-more-inputs-than-states"])
def test_simulate_bad_jammer_exits_2(experiment_config, capsys, edit, named):
    doc = json.loads(Path(experiment_config).read_text())
    doc.update(edit)
    Path(experiment_config).write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", experiment_config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert named in captured.err
    assert captured.out == ""


def test_simulate_explicit_n_off_the_plan_exits_2(tmp_path, capsys):
    # experiment.json plans a 704-symbol transmission; simulate never reads an n of its own
    examples = Path(__file__).resolve().parents[1] / "examples_configs"
    doc = json.loads((examples / "experiment.json").read_text())
    doc["n"] = 100
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "n = 100" in captured.err and "704" in captured.err
    assert captured.out == ""


def test_simulate_nonsymmetrizable_symmetrize_jammer_exits_2(experiment_config, capsys, monkeypatch):
    # p_x has weight 0.1 against a state cap of 0.05: no symmetrizing map exists
    def build(*args, **kwargs):
        raise AssertionError("the codec was built")

    monkeypatch.setattr("winavc.harness.build_three_phase_codec", build)
    doc = json.loads(Path(experiment_config).read_text())
    doc["jammer"] = {"kind": "symmetrize"}
    Path(experiment_config).write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", experiment_config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "the input law is not symmetrizable" in captured.err
    assert captured.out == ""


TWO_SIDED_LAMBDA = [{"coeffs": [0, 1], "bound": 0.05}, {"coeffs": [1, 0], "bound": 0.97}]


@pytest.mark.parametrize("jammer", [
    {"kind": "none"},
    # the default iid law needs a one-sided state set; a law inside this one
    # still hits the rejection cap, so every trial forfeits within the budget
    {"kind": "iid", "p_s": {"weight": 0.04}},
    {"kind": "spoof"},
], ids=["none", "iid", "spoof"])
def test_simulate_state_set_without_constant_fallback(experiment_config, capsys, jammer):
    # no constant state sequence is admissible and the state set's vertices
    # are not multiples of 1/w_s; the forfeit sequence must still exist
    doc = json.loads(Path(experiment_config).read_text())
    doc["lambda"] = TWO_SIDED_LAMBDA
    doc["jammer"] = jammer
    doc["trials"] = 3
    Path(experiment_config).write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", experiment_config, "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["trials"] == 3


def test_simulate_default_iid_law_on_two_sided_state_set_exits_2(experiment_config, capsys,
                                                                  monkeypatch):
    # Q1 in [0.03, 0.05]: the default law backs off the cap on Q1 and ignores the
    # floor, so every trial would run into the rejection cap; refused at load
    def build(*args, **kwargs):
        raise AssertionError("the codec was built")

    monkeypatch.setattr("winavc.harness.build_three_phase_codec", build)
    doc = json.loads(Path(experiment_config).read_text())
    doc["lambda"] = TWO_SIDED_LAMBDA
    doc["jammer"] = {"kind": "iid"}
    Path(experiment_config).write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", experiment_config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "jammer.p_s" in captured.err
    assert captured.out == ""


def test_simulate_accepts_integral_floats(experiment_config, capsys):
    doc = json.loads(Path(experiment_config).read_text())
    doc["trials"] = 5.0
    doc["code"]["n1"] = 256.0
    Path(experiment_config).write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", experiment_config, "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["trials"] == 5


@pytest.mark.parametrize("command, doc, named", [
    ("check-windows", {"sequence": [0, 1, 0, 0], "window": 2.7, "dim": 2,
                       "constraints": [{"coeffs": [0, 1], "bound": 0.5}]}, "window"),
    ("sweep", {"w": [0.2], "p": [0.1], "w_x": 64.2}, "w_x"),
    ("sweep", {"w": [0.2], "p": [0.1], "n": [256.5]}, "n"),
], ids=["check-windows-window", "sweep-w-x", "sweep-n"])
def test_non_integer_key_exits_2(tmp_path, capsys, command, doc, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli_main([command, "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert f"{named} must be an integer" in captured.err
    assert captured.out == ""


def test_sweep_to_file(tmp_path):
    grid = {"w": [0.2], "p": [0.1], "trials": 0}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    out = tmp_path / "rows.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert text.startswith("w,p,alpha,n,R,c_list,verdict")
    assert "0.357751" in text


def test_sweep_empty_axis_prints_header_only(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"w": [], "p": [0.1]}))
    assert cli_main(["sweep", "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "w,p,alpha,n,R,c_list,verdict,err_avg,err_max_est,ci_lo,ci_hi,status\n"


@pytest.mark.parametrize("axis", [0.3, "abc"], ids=["scalar", "string"])
def test_sweep_non_list_axis_exits_2(tmp_path, capsys, axis):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"w": axis}))
    assert cli_main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed_args", [[], ["--seed", "5"]], ids=["no-seed", "seed"])
def test_sweep_non_object_grid_exits_2(tmp_path, capsys, seed_args):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps([1, 2]))
    assert cli_main(["sweep", "--config", str(cfg), *seed_args]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["capacity", "--config", str(bad)]) == EXIT_CONFIG


def test_config_missing_fields_exits_2(tmp_path):
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps({"alphabets": {"x": 2, "s": 2, "y": 2}}))
    assert cli_main(["capacity", "--config", str(cfg)]) == EXIT_CONFIG


def test_module_entry_point_prints_the_version():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "winavc", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "winavc 0.1.0\n"
