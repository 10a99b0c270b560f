import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from solvflow import cli
from solvflow.asymptotics import fit_power_law
from solvflow.catalog import InitialData, ModelId
from solvflow.cli import main
from solvflow.curvature import COMPONENTS
from solvflow.flow import CSV_HEADER, FlowProblem, Trajectory, integrate


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    assert out[0].startswith("D1")
    assert out[-1].startswith("D11")


def test_describe_text(capsys):
    assert main(["describe", "D3"]) == 0
    out = capsys.readouterr().out
    assert "-4/11" in out and "8/11" in out
    assert "A^5*B^4*C^3*D^2*E" in out


def test_describe_json(capsys):
    assert main(["describe", "D11", "--json"]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["id"] == "D11"
    assert meta["constrained_params"]["kappa"] == 1.0


def test_unknown_model_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "D7"])
    assert exc.value.code == 2


def test_bad_lambda_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["flow", "D5", "--lambda", "1,2,3", "--t-end", "1",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("lam", ["nan,1,1,1,1", "1,inf,1,1,1", "1,1,0,1,1"])
def test_nonfinite_lambda_usage_error(tmp_path, capsys, lam):
    with pytest.raises(SystemExit) as exc:
        main(["flow", "D5", "--lambda", lam, "--t-end", "1",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "finite and strictly positive" in capsys.readouterr().err


def test_flow_csv_output(tmp_path, capsys):
    out = tmp_path / "d5.csv"
    rc = main(["flow", "D5", "--lambda", "1,1,1,1,1", "--t-end", "1",
               "--out", str(out)])
    assert rc == 0
    traj = Trajectory.read_csv(out)
    assert traj.times[-1] == 1.0
    assert traj.final[3] == pytest.approx(1.0, abs=1e-8)
    assert traj.final[4] == pytest.approx(5.0, abs=1e-8)


def test_flow_json_output(tmp_path):
    out = tmp_path / "d5.json"
    rc = main(["flow", "D5", "--lambda", "1,1,1,1,1", "--t-end", "1",
               "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["model"] == "D5"
    assert doc["termination"] == "reached_t_end"


def test_invariants_output(capsys):
    assert main(["invariants", "D2"]) == 0
    out = capsys.readouterr().out
    assert "(1, 1, 1, 0, 0)" in out
    assert "(2, 1, 0, 2, 1)" in out


def test_fit_round_trip_bit_identical(tmp_path, capsys):
    problem = FlowProblem(ModelId.D2, InitialData((1, 1, 1, 1, 1)), 1e5,
                          rel_tol=1e-11, abs_tol=1e-13)
    traj = integrate(problem)
    path = tmp_path / "d2.csv"
    traj.write_csv(path)

    in_process = fit_power_law(traj, "E", (1e3, 1e5))
    reread = fit_power_law(Trajectory.read_csv(path), "E", (1e3, 1e5))
    assert reread.exponent == in_process.exponent          # bitwise
    assert reread.log_prefactor == in_process.log_prefactor
    assert reread.r_squared == in_process.r_squared

    rc = main(["fit", "--in", str(path), "--component", "E", "--window", "1e3,1e5"])
    assert rc == 0
    out = capsys.readouterr().out
    printed = next(l for l in out.splitlines() if l.startswith("exponent:"))
    assert float(printed.split()[1]) == in_process.exponent
    assert in_process.exponent == pytest.approx(4 / 7, abs=0.01)


def test_component_names_are_defined_once(tmp_path):
    assert COMPONENTS == "ABCDE"
    assert CSV_HEADER == ("t", *COMPONENTS)
    t = np.array([0.0, 1.0])
    Trajectory(times=t, coeffs=np.ones((2, len(COMPONENTS))),
               termination="reached_t_end").write_json(tmp_path / "run.json")
    samples = json.loads((tmp_path / "run.json").read_text())["samples"]
    assert list(samples) == ["t", *COMPONENTS]
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    fit = subparsers.choices["fit"]
    (component,) = [a for a in fit._actions if "--component" in a.option_strings]
    assert component.choices == tuple(COMPONENTS)


def test_fit_nonfinite_cell_usage_error(tmp_path, capsys):
    b = np.geomspace(1.0, 1e4, 50) ** 0.25
    b[40] = np.nan
    # the older eight-column layout, which both old and new readers accept
    rows = [f"{t},1,{x},1,1,1,0.0,0.0" for t, x in zip(np.geomspace(1.0, 1e4, 50), b)]
    path = tmp_path / "nan.csv"
    path.write_text("t,A,B,C,D,E,max_drift,max_offdiag\n" + "\n".join(rows) + "\n")
    assert main(["fit", "--in", str(path), "--component", "B"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_fit_ragged_file_usage_error(tmp_path, capsys, suffix):
    traj = Trajectory(times=np.arange(4.0), coeffs=np.ones((4, 5)), termination="reached_t_end")
    path = tmp_path / f"ragged{suffix}"
    if suffix == ".csv":
        traj.write_csv(path)
        path.write_text(path.read_text() + "4.0,1.0,1.0\n")
    else:
        doc = traj.to_json_dict()
        doc["samples"]["D"].pop()
        path.write_text(json.dumps(doc))
    assert main(["fit", "--in", str(path), "--component", "A"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert ("line 6 has 3 fields" if suffix == ".csv" else "'D' has shape (3,)") in err


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_fit_sample_not_a_number_usage_error(tmp_path, capsys, suffix):
    traj = Trajectory(times=np.arange(4.0), coeffs=np.ones((4, 5)), termination="reached_t_end")
    path = tmp_path / f"text{suffix}"
    if suffix == ".csv":
        traj.write_csv(path)
        path.write_text(path.read_text() + "4.0,1,x,1,1,1\n")
    else:
        doc = traj.to_json_dict()
        doc["samples"]["B"][2] = "x"
        path.write_text(json.dumps(doc))
    assert main(["fit", "--in", str(path), "--component", "A"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert ("line 6 has a field that is not a number" if suffix == ".csv"
            else "'samples' 'B' is not a list of numbers") in err
    assert "'x'" in err


@pytest.mark.parametrize("suffix, message", [
    (".csv", "sample times must be strictly increasing"),
    # orjson's message: the 12 characters end inside the literal null
    (".json", "invalid literal: line 1 column 11 (char 10)"),
    (".json", "metric coefficients must be finite and strictly positive: row 1 is"),
], ids=["repeated-time", "truncated-json", "negative-coefficient"])
def test_fit_refusal_names_the_file(tmp_path, capsys, suffix, message):
    traj = Trajectory(times=np.arange(4.0), coeffs=np.ones((4, 5)), termination="reached_t_end")
    path = tmp_path / f"refused{suffix}"
    if suffix == ".csv":
        traj.write_csv(path)
        path.write_text(path.read_text() + "3.0,1,1,1,1,1\n")
    elif "invalid literal" in message:
        path.write_text(json.dumps(traj.to_json_dict())[:12])
    else:
        doc = traj.to_json_dict()
        doc["samples"]["A"][1] = -1.0
        path.write_text(json.dumps(doc))
    assert main(["fit", "--in", str(path), "--component", "A"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


def test_flow_infinite_t_end_usage_error(tmp_path, capsys):
    assert main(["flow", "D5", "--lambda", "1,1,1,1,1", "--t-end", "inf",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "finite" in capsys.readouterr().err


def test_flow_rtol_below_the_solver_floor_usage_error(tmp_path, capsys):
    assert main(["flow", "D5", "--lambda", "1,1,1,1,1", "--t-end", "10", "--rtol", "1e-13",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "rel_tol must be at least" in capsys.readouterr().err


def no_work(*args, **kwargs):
    raise AssertionError("work started before --out was checked")


@pytest.mark.parametrize("argv", [
    ["flow", "D3", "--lambda", "1,1,1,1,1", "--t-end", "1e6"],
    ["check"],
])
@pytest.mark.parametrize("out, message", [
    ("missing/x.csv", "does not exist"),
    (".", "is a directory"),
])
def test_unwritable_out_usage_error(monkeypatch, capsys, tmp_path, argv, out, message):
    monkeypatch.setattr(cli, "integrate", no_work)
    monkeypatch.setattr(cli, "run_verification", no_work)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err


def test_invariants_retired_flags(capsys):
    for flag in ("--max-exp", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "D2", flag, "2"])
        assert exc.value.code == 2


def test_fit_missing_file():
    assert main(["fit", "--in", "/nonexistent/x.csv", "--component", "A"]) == 2


@pytest.mark.parametrize("content, message", [
    ("", "empty CSV file"),
    ("t,A,B,C,D,E\n", "no samples"),
])
def test_fit_csv_without_samples_usage_error(tmp_path, capsys, content, message):
    path = tmp_path / "empty.csv"
    path.write_text(content)
    assert main(["fit", "--in", str(path), "--component", "A"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"model": "D5"}, "'samples'"),
    ({"samples": {"t": [0.0, 1.0], "A": [1, 1], "B": [1, 1], "D": [1, 1], "E": [1, 1]}},
     "has no 'C'"),
    ({"samples": {"A": [1], "B": [1], "C": [1], "D": [1], "E": [1]}}, "has no 't'"),
    ([1, 2, 3], "'samples'"),
    ({"samples": [1, 2, 3]}, "'samples'"),
    ({"model": "D7", "samples": {name: [0.0, 1.0] if name == "t" else [1, 1]
                                 for name in CSV_HEADER}},
     "bad.json: 'model' 'D7' is not one of D1, D2, D3, D5, D11"),
])
def test_fit_malformed_json_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["fit", "--in", str(path), "--component", "A"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_check_single_model(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["check", "D5", "--seed", "0", "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0, captured
    report = json.loads(out.read_text())
    assert report["passed"] is True
    numbers = [c["criterion"] for c in report["criteria"]]
    assert 1 in numbers and 3 in numbers and 10 in numbers
    assert 8 not in numbers  # D3-specific criterion skipped under the filter


def test_check_against_lists_what_moved(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    assert main(["check", "D5", "--seed", "0", "--out", str(old)]) == 0
    capsys.readouterr()
    assert main(["check", "D5", "--seed", "0", "--out", str(new), "--against", str(old)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "0 items moved" and "moved:" not in out
    # one item's value doubled in OLD: that item, with new/old
    doc = json.loads(old.read_text())
    criterion, item = next((c["criterion"], item) for c in doc["criteria"] for item in c["items"]
                           if isinstance(item["computed"], float) and item["computed"] != 0.0)
    item["computed"] *= 2
    old.write_text(json.dumps(doc))
    assert main(["check", "D5", "--seed", "0", "--out", str(new), "--against", str(old)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("moved:")] == [
        f"moved: criterion {criterion} {item['name']!r} computed: {item['computed'] / 2!r} "
        f"(old {item['computed']!r}, new/old 0.5)"]
    assert out[-1] == "1 items moved"


@pytest.mark.parametrize("content", [None, "{", "{}", '{"criteria": [1], "runs": {}}'])
def test_check_against_an_unreadable_report_usage_error(monkeypatch, capsys, tmp_path, content):
    old = tmp_path / "old.json"
    if content is not None:
        old.write_text(content)
    monkeypatch.setattr(cli, "run_verification", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--out", str(tmp_path / "r.json"), "--against", str(old)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and f"{old}: not a readable verification report" in err


def test_cli_entry_point_subprocess(tmp_path):
    # console-script path: run a tiny flow end to end in a fresh interpreter
    out = tmp_path / "run.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "solvflow.cli", "flow", "D1",
         "--lambda", "1,1,1,1,1", "--t-end", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
