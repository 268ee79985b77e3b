import ast
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedgp import benchmarks as bm
from mixedgp import cli, gp
from mixedgp.cli import _write_trace, main
from mixedgp.errors import NumericalFailure
from mixedgp.kernels import CategoricalKernelKind as K
from mixedgp.kernels import HyperparameterSet
from mixedgp.optimize import StartRecord
from mixedgp.space import (
    Categorical,
    Continuous,
    DesignSpace,
    Integer,
    load_dataset,
    load_points,
    save_dataset,
    save_points,
    save_space,
)
from mixedgp.benchmarks import beam_space, cosine_function, cosine_space
from mixedgp.doe import lhs
from mixedgp.space import Dataset


@pytest.fixture
def cosine_files(tmp_path):
    space = cosine_space()
    space_file = tmp_path / "cosine.space"
    save_space(space, space_file)
    points = lhs(space, 40, seed=0)
    y = np.array([cosine_function(w.continuous[0], w.categorical[0]) for w in points])
    data_file = tmp_path / "train.csv"
    save_dataset(Dataset(space, points, y), data_file)
    return space, space_file, data_file


def test_doe_lhs_row_count(tmp_path, cosine_files):
    space, space_file, _ = cosine_files
    out = tmp_path / "doe.csv"
    assert main(["doe", str(space_file), "--n", "98", "--seed", "3", "--out", str(out)]) == 0
    assert len(load_points(space, out)) == 98


def test_doe_grid_row_count(tmp_path, cosine_files):
    space, space_file, _ = cosine_files
    out = tmp_path / "grid.csv"
    code = main(["doe", str(space_file), "--method", "grid", "--grid-counts", "1000",
                 "--out", str(out)])
    assert code == 0
    assert len(load_points(space, out)) == 13000


def test_doe_missing_space_file(tmp_path):
    code = main(["doe", str(tmp_path / "nope.space"), "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("line", ["continuous x 0 inf", "continuous x -1e308 1e308",
                                  "integer z 0 1" + "0" * 400])
def test_doe_space_with_infinite_or_overflowing_bounds_exits_2(tmp_path, capsys, line):
    space_file = tmp_path / "bad.space"
    space_file.write_text(line + "\ncategorical c a b\n")
    code = main(["doe", str(space_file), "--n", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_doe_overflowing_grid(tmp_path):
    space = DesignSpace((Continuous("a", 0, 1), Continuous("b", 0, 1), Continuous("c", 0, 1)))
    space_file = tmp_path / "big.space"
    save_space(space, space_file)
    code = main(["doe", str(space_file), "--method", "grid",
                 "--grid-counts", "1000,1000,1000", "--out", str(tmp_path / "x.csv")])
    assert code == 3


@pytest.mark.parametrize("counts", ["3,", "3,x", "1.5"])
def test_doe_malformed_grid_counts_is_a_usage_error(tmp_path, cosine_files, capsys, counts):
    _, space_file, _ = cosine_files
    code = main(["doe", str(space_file), "--method", "grid", "--grid-counts", counts,
                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "--grid-counts" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_doe_grid_count_below_one_is_a_generation_error(tmp_path, cosine_files, capsys):
    _, space_file, _ = cosine_files
    code = main(["doe", str(space_file), "--method", "grid", "--grid-counts", "0",
                 "--out", str(tmp_path / "g.csv")])
    assert code == 3
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("method", ["lhs", "grid"])
@pytest.mark.parametrize("n", ["5", "7", "10"])  # 10 is --n's default
def test_doe_n_with_grid_counts_is_a_usage_error(tmp_path, cosine_files, capsys, method, n):
    _, space_file, _ = cosine_files
    with pytest.raises(SystemExit) as info:
        main(["doe", str(space_file), "--method", method, "--grid-counts", "3", "--n", n,
              "--out", str(tmp_path / "d.csv")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--grid-counts" in err and "--n" in err
    assert not (tmp_path / "d.csv").exists()


def test_doe_lhs_refuses_grid_counts(tmp_path, cosine_files, capsys):
    _, space_file, _ = cosine_files
    code = main(["doe", str(space_file), "--method", "lhs", "--grid-counts", "3",
                 "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "--grid-counts" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("n, rows", [(None, 10 * 13), ("7", 7 * 13)])
def test_doe_grid_n_counts_every_numeric_variable(tmp_path, cosine_files, n, rows):
    space, space_file, _ = cosine_files
    out = tmp_path / "g.csv"
    size = [] if n is None else ["--n", n]
    assert main(["doe", str(space_file), "--method", "grid", *size, "--out", str(out)]) == 0
    assert len(load_points(space, out)) == rows


def test_doe_grid_over_the_byte_cap_exits_3(tmp_path, capsys):
    space_file = tmp_path / "wide.space"
    save_space(DesignSpace(tuple(Continuous(f"x{i}", 0, 1) for i in range(14))), space_file)
    code = main(["doe", str(space_file), "--method", "grid", "--grid-counts",
                 ",".join(["10"] * 7 + ["1"] * 7), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "bytes" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_fit_predict_roundtrip(tmp_path, cosine_files, capsys):
    space, space_file, data_file = cosine_files
    model_file = tmp_path / "model.json"
    trace_file = tmp_path / "trace.jsonl"
    code = main([
        "fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "2",
        "--budget", "400", "--seed", "0", "--trace", str(trace_file),
        "--out-model", str(model_file),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel=gd" in out and "n_hyper=2" in out
    assert model_file.exists() and trace_file.exists()
    doc = json.loads(model_file.read_text())
    assert doc["kernel"] == "gd" and len(doc["theta_flat"]) == 2

    # predicting the training file reproduces the targets
    pred_file = tmp_path / "preds.csv"
    assert main(["predict", str(model_file), str(data_file), "--out", str(pred_file)]) == 0
    lines = pred_file.read_text().strip().splitlines()
    assert lines[0].endswith("mean,stddev")
    rows = [line.split(",") for line in lines[1:]]
    data_rows = [line.split(",") for line in data_file.read_text().strip().splitlines()[1:]]
    for row, data_row in zip(rows, data_rows):
        assert abs(float(row[-2]) - float(data_row[-1])) <= 1e-6 * (1 + abs(float(data_row[-1])))
        assert float(row[-1]) >= 0.0


def test_fit_trace_writes_one_json_object_per_start(tmp_path, cosine_files):
    space, space_file, data_file = cosine_files
    trace_file = tmp_path / "trace.jsonl"
    assert main(["fit", str(space_file), str(data_file), "--kernel", "cr", "--starts", "3",
                 "--budget", "60", "--trace", str(trace_file),
                 "--out-model", str(tmp_path / "model.json")]) == 0
    model = gp.fit(load_dataset(space, data_file), K.CR, 2, gp.FitConfig(n_starts=3, max_evals=60))
    lines = [json.loads(line) for line in trace_file.read_text().splitlines()]
    keys = ["start_index", "n_evals", "replayed", "stop", "best_value"]
    assert [list(line) for line in lines] == [keys] * len(lines)
    assert [StartRecord(**line) for line in lines] == list(model.start_log)
    assert len(lines) == 3 and {line["stop"] for line in lines} == {"budget"}


def test_trace_writes_a_start_without_a_finite_value_as_null(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write_trace([StartRecord(0, 5, -math.inf, 0, "budget"), StartRecord(1, 7, -2.5, 3)], path)
    assert [json.loads(line) for line in path.read_text().splitlines()] == [
        {"start_index": 0, "n_evals": 5, "best_value": None, "replayed": 0, "stop": "budget"},
        {"start_index": 1, "n_evals": 7, "best_value": -2.5, "replayed": 3, "stop": "converged"},
    ]


def test_fit_multistart_monotone(tmp_path, cosine_files, capsys):
    space, space_file, data_file = cosine_files

    def run(starts):
        model_file = tmp_path / f"m{starts}.json"
        assert main(["fit", str(space_file), str(data_file), "--kernel", "gd",
                     "--starts", str(starts), "--budget", "400",
                     "--out-model", str(model_file)]) == 0
        return json.loads(model_file.read_text())["log_likelihood"]

    ll1, ll10 = run(1), run(10)
    assert ll10 >= ll1 - 1e-9


def test_predict_empty_points_file(tmp_path, cosine_files):
    space, space_file, data_file = cosine_files
    model_file = tmp_path / "model.json"
    assert main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "200", "--out-model", str(model_file)]) == 0
    empty = tmp_path / "empty.csv"
    save_points(space, (), empty)
    out = tmp_path / "preds.csv"
    assert main(["predict", str(model_file), str(empty), "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines() == ["x,c,mean,stddev"]


def test_fit_ehh_reports_79(tmp_path, cosine_files, capsys):
    space, space_file, data_file = cosine_files
    code = main(["fit", str(space_file), str(data_file), "--kernel", "ehh", "--starts", "1",
                 "--budget", "300", "--out-model", str(tmp_path / "m.json")])
    assert code == 0
    assert "n_hyper=79" in capsys.readouterr().out


def test_benchmark_dragon_audit(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    assert main(["benchmark", "--problem", "dragon-audit", "--out", str(out)]) == 0
    assert "relaxed=21 gd=12 cr=21 ehh=47" in capsys.readouterr().out
    assert "relaxed_total,21" in out.read_text()


def test_benchmark_cosine_rows(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["benchmark", "--problem", "cosine", "--kernels", "gd,cr",
                 "--doe-size", "6", "--seed", "0", "--starts", "1", "--budget", "150",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("gd,") and lines[2].startswith("cr,")


def test_benchmark_reports_a_kind_named_twice_once(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["benchmark", "--problem", "cosine", "--kernels", "gd,GD",
                 "--doe-size", "6", "--seed", "0", "--starts", "1", "--budget", "50",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["gd"]
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("gd,")


def test_benchmark_unknown_problem():
    with pytest.raises(SystemExit) as info:
        main(["benchmark", "--problem", "rosenbrock"])
    assert info.value.code == 2


def test_benchmark_unknown_kernel_kind():
    code = main(["benchmark", "--problem", "cosine", "--kernels", "matern",
                 "--doe-size", "5", "--starts", "1", "--budget", "50"])
    assert code == 2


@pytest.mark.parametrize("kernels", ["", ","])
def test_benchmark_with_no_kernel_kind_exits_2(kernels, capsys):
    code = main(["benchmark", "--problem", "cosine", "--kernels", kernels, "--strict",
                 "--doe-size", "5", "--starts", "1", "--budget", "50"])
    assert code == 2
    assert "names no kernel kind" in capsys.readouterr().err


@pytest.mark.parametrize("strict, code", [(True, 6), (False, 0)])
def test_benchmark_with_a_failed_fit_exits_6_under_strict(monkeypatch, capsys, strict, code):
    fit = gp.fit

    def failing_for_cr(dataset, kind, *args, **kwargs):
        if kind is K.CR:
            raise NumericalFailure("Cholesky failed even with jitter 0.0001")
        return fit(dataset, kind, *args, **kwargs)

    monkeypatch.setattr(gp, "fit", failing_for_cr)
    args = ["benchmark", "--problem", "cosine", "--kernels", "gd,cr", "--doe-size", "10",
            "--starts", "1", "--budget", "10"]
    assert main(args + ["--strict"] * strict) == code
    captured = capsys.readouterr()
    assert "cr: failed (Cholesky failed even with jitter 0.0001)" in captured.err
    assert captured.out.startswith("gd: n_hyper=2 ")


def test_kernel_info(tmp_path, cosine_files, capsys):
    _, space_file, _ = cosine_files
    assert main(["kernel-info", str(space_file)]) == 0
    out = capsys.readouterr().out
    assert "gd: 2 hyperparameters" in out
    assert "ehh: 79 hyperparameters" in out
    assert "fe: 92 hyperparameters" in out


def test_export_corr_gd_single_value(tmp_path, cosine_files):
    space, space_file, data_file = cosine_files
    model_file = tmp_path / "model.json"
    assert main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "2",
                 "--budget", "400", "--out-model", str(model_file)]) == 0
    out = tmp_path / "corr.csv"
    assert main(["export-corr", str(model_file), "--variable", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == [str(i) for i in range(1, 14)]
    matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(np.diag(matrix) == 1.0)
    off = matrix[~np.eye(13, dtype=bool)]
    assert np.unique(off).size == 1


def test_export_corr_rejects_continuous_variable(tmp_path, cosine_files):
    space, space_file, data_file = cosine_files
    model_file = tmp_path / "model.json"
    assert main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "200", "--out-model", str(model_file)]) == 0
    code = main(["export-corr", str(model_file), "--variable", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 5


@pytest.mark.parametrize("variable", ["0", "4", "9", "-1"])
def test_export_corr_variable_outside_the_space_exits_2(tmp_path, capsys, variable):
    # the beam space has 3 variables: two continuous, then the categorical section
    space = beam_space()
    points = lhs(space, 10, seed=0)
    theta = HyperparameterSet.from_flat(space, K.GD, [1.0, 2.0, 0.5])
    model_file = tmp_path / "model.json"
    gp.save_model(gp.build_model(Dataset(space, points, points.X[:, 0]), theta), model_file)
    out = tmp_path / "corr.csv"
    assert main(["export-corr", str(model_file), "--variable", variable, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: --variable must be in 1..3, the variables of "
                                       f"the model's space; got {variable}\n")
    assert not out.exists()
    assert main(["export-corr", str(model_file), "--variable", "3", "--out", str(out)]) == 0
    assert main(["export-corr", str(model_file), "--variable", "2", "--out", str(out)]) == 5


def test_export_corr_on_a_space_without_a_categorical_variable_exits_5(tmp_path, capsys):
    space = DesignSpace((Continuous("x", 0.0, 1.0), Integer("z", 0, 4)))
    points = lhs(space, 8, seed=0)
    theta = HyperparameterSet.from_flat(space, K.GD, [1.0, 2.0])
    model_file = tmp_path / "model.json"
    gp.save_model(gp.build_model(Dataset(space, points, points.X[:, 0] + points.Z[:, 0]),
                                 theta), model_file)
    out = tmp_path / "corr.csv"
    assert main(["export-corr", str(model_file), "--out", str(out)]) == 5
    assert capsys.readouterr().err == "error: model space has no categorical variable\n"
    assert not out.exists()


def test_export_corr_checks_the_variable_before_building_the_model(tmp_path, capsys,
                                                                  monkeypatch):
    space = beam_space()
    points = lhs(space, 10, seed=0)
    theta = HyperparameterSet.from_flat(space, K.GD, [1.0, 2.0, 0.5])
    model_file = tmp_path / "model.json"
    gp.save_model(gp.build_model(Dataset(space, points, points.X[:, 0]), theta), model_file)

    def no_build(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(gp, "build_model", no_build)
    out = tmp_path / "corr.csv"
    assert main(["export-corr", str(model_file), "--variable", "9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --variable must be in 1..3, the variables of "
                                       "the model's space; got 9\n")
    assert main(["export-corr", str(model_file), "--variable", "1", "--out", str(out)]) == 5
    assert capsys.readouterr().err == "error: variable 1 is not categorical\n"
    assert not out.exists()


def test_an_environment_variable_does_not_change_a_design(tmp_path, cosine_files, monkeypatch):
    _, space_file, _ = cosine_files
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("MIXEDGP_SEED", "11")
    assert main(["doe", str(space_file), "--n", "9", "--out", str(out1)]) == 0
    monkeypatch.delenv("MIXEDGP_SEED")
    assert main(["doe", str(space_file), "--n", "9", "--seed", "0", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_no_module_of_the_package_reads_the_environment():
    package = Path(__file__).resolve().parent.parent / "src" / "mixedgp"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
            else:
                continue
            assert not names & {"environ", "getenv"}, f"{path.name}:{node.lineno}"


def test_main_called_twice_gives_what_two_fresh_processes_give(tmp_path, cosine_files, capsys):
    # the parser is built once per process; each call still reads its own --seed
    _, space_file, _ = cosine_files
    calls = [["doe", str(space_file), "--n", "12", "--seed", "3", "--out", "{out}/doe.csv"],
             ["benchmark", "--problem", "cosine", "--kernels", "gd", "--doe-size", "8",
              "--seed", "5", "--starts", "1", "--budget", "30", "--out", "{out}/report.csv",
              "--export-corr-dir", "{out}/corr"]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir(), here.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for argv in calls:
        result = subprocess.run([sys.executable, "-m", "mixedgp.cli"]
                                + [a.format(out=fresh) for a in argv],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
    for argv in calls:
        assert main([a.format(out=here) for a in argv]) == 0
        with pytest.raises(SystemExit) as info:  # a usage error leaves the parser usable
            main(["doe", str(space_file), "--method", "sobol", "--out", "x.csv"])
        assert info.value.code == 2
    capsys.readouterr()

    def without_fit_seconds(path):
        return [line.split(",")[:6] + line.split(",")[7:] for line in path.read_text().splitlines()]

    for name in ("doe.csv", "corr/corr_gd.csv"):
        assert (here / name).read_bytes() == (fresh / name).read_bytes()
    assert without_fit_seconds(here / "report.csv") == without_fit_seconds(fresh / "report.csv")


def test_fit_with_no_start_exits_2(tmp_path, cosine_files, capsys):
    # the command passes no warm starts, so a fit needs a diagonal start
    _, space_file, data_file = cosine_files
    code = main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "0",
                 "--out-model", str(tmp_path / "m.json")])
    assert code == 2
    assert "n_starts must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_fit_on_a_one_row_file_exits_2(tmp_path, cosine_files, capsys):
    _, space_file, data_file = cosine_files
    data_file.write_text("\n".join(data_file.read_text().splitlines()[:2]) + "\n")
    code = main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "5", "--out-model", str(tmp_path / "m.json")])
    assert code == 2
    assert "a fit needs at least 2 points, the dataset has 1" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_fit_rejects_nan_target(tmp_path, cosine_files, capsys):
    space, space_file, data_file = cosine_files
    lines = data_file.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1] + ["nan"])
    data_file.write_text("\n".join(lines) + "\n")
    code = main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "50", "--out-model", str(tmp_path / "m.json")])
    assert code == 2
    assert "row 2" in capsys.readouterr().err


def test_fit_on_a_nan_target_names_the_file_line_and_exits_2(tmp_path, cosine_files, capsys):
    space, space_file, data_file = cosine_files
    lines = data_file.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1] + ["nan"])
    lines.insert(2, "")  # a blank line is skipped, and still counted as a line
    data_file.write_text("\n".join(lines) + "\n")
    code = main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "50", "--out-model", str(tmp_path / "m.json")])
    assert code == 2
    assert capsys.readouterr().err == (f"error: {data_file}:5: targets must be finite: "
                                       f"row 2 (0-based) holds nan\n")


def test_predict_on_a_nan_coordinate_names_the_file_line_and_exits_5(tmp_path, cosine_files,
                                                                       gd_model_file, capsys):
    space, _, _ = cosine_files
    level = space.categorical[0].levels[1]
    points_file = tmp_path / "points.csv"
    points_file.write_text(f"x,c\n0.5,{level}\n\n0.25,{level}\nnan,{level}\n")
    capsys.readouterr()
    code = main(["predict", str(gd_model_file), str(points_file),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 5
    assert capsys.readouterr().err.startswith(f"error: {points_file}:5: coordinate 0 = nan ")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("blank", [False, True], ids=["no-blank-line", "blank-line"])
def test_predict_from_a_pipe_names_the_file_line_of_a_refused_row(tmp_path, cosine_files,
                                                                    gd_model_file, capsys, blank):
    """A file that can be read once (a pipe) still has the line of a refused row named."""
    space, _, _ = cosine_files
    a, b = space.categorical[0].levels[:2]
    rows = ["x,c", f"0.5,{a}"] + ([""] if blank else [f"0.25,{a}"]) + [f"1.5,{b}", f"0.75,{b}"]
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, ("\n".join(rows) + "\n").encode())
        os.close(write_end)
        path = f"/proc/self/fd/{read_end}"
        code = main(["predict", str(gd_model_file), path, "--out", str(tmp_path / "p.csv")])
    finally:
        os.close(read_end)
    assert code == 5
    assert capsys.readouterr().err.startswith(f"error: {path}:4: coordinate 0 = 1.5 outside ")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("option, value", [("--jitter", "inf"), ("--jitter", "nan"),
                                           ("--jitter", "0"), ("--budget", "0")])
def test_fit_with_a_budget_or_jitter_outside_its_domain_exits_2(tmp_path, cosine_files, option,
                                                                  value, capsys):
    _, space_file, data_file = cosine_files
    code = main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 option, value, "--out-model", str(tmp_path / "m.json")])
    assert code == 2
    assert option.lstrip("-").replace("budget", "max_evals") in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_fit_rejects_non_integral_integer_exits_5(tmp_path, capsys):
    space_file, data_file = tmp_path / "mixed.space", tmp_path / "train.csv"
    save_space(DesignSpace((Continuous("x", 0, 1), Integer("n", 1, 4))), space_file)
    data_file.write_text("x,n,target\n0.1,1,0.5\n0.6,2.5,1.0\n0.9,4,2.0\n")
    code = main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "50", "--out-model", str(tmp_path / "m.json")])
    assert code == 5
    assert "2.5 is not a whole number" in capsys.readouterr().err


def test_predict_on_a_field_over_the_csv_size_limit_exits_2(tmp_path, cosine_files, capsys):
    space, space_file, data_file = cosine_files
    model_file = tmp_path / "model.json"
    assert main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "50", "--out-model", str(model_file)]) == 0
    big = tmp_path / "big.csv"
    big.write_text("x,c\r\n0.5," + "1" * (csv.field_size_limit() + 1) + "\r\n")
    capsys.readouterr()
    assert main(["predict", str(model_file), str(big), "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {big}: ") and "field larger" in err


@pytest.fixture
def gd_model_file(tmp_path, cosine_files):
    _, space_file, data_file = cosine_files
    model_file = tmp_path / "model.json"
    assert main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "50", "--out-model", str(model_file)]) == 0
    return model_file


@pytest.mark.parametrize("command", ["predict", "export-corr"])
def test_model_file_without_theta_exits_2(tmp_path, cosine_files, gd_model_file, command, capsys):
    _, _, data_file = cosine_files
    doc = json.loads(gd_model_file.read_text())
    del doc["theta_flat"]
    gd_model_file.write_text(json.dumps(doc))
    args = [command, str(gd_model_file)] + ([str(data_file)] if command == "predict" else [])
    assert main(args + ["--out", str(tmp_path / "out.csv")]) == 2
    assert "theta_flat" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "export-corr"])
def test_model_file_of_one_point_exits_2(tmp_path, cosine_files, gd_model_file, command, capsys):
    _, _, data_file = cosine_files
    doc = json.loads(gd_model_file.read_text())
    doc["points"] = {name: rows[:1] for name, rows in doc["points"].items()}
    doc["targets"] = doc["targets"][:1]
    gd_model_file.write_text(json.dumps(doc))
    args = [command, str(gd_model_file)] + ([str(data_file)] if command == "predict" else [])
    assert main(args + ["--out", str(tmp_path / "out.csv")]) == 2
    assert "a fit needs at least 2 points, the dataset has 1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_model_file_with_negative_theta_exits_2(tmp_path, cosine_files, gd_model_file, capsys):
    _, _, data_file = cosine_files
    doc = json.loads(gd_model_file.read_text())
    doc["theta_flat"][0] = -1.0  # the continuous rate
    gd_model_file.write_text(json.dumps(doc))
    code = main(["predict", str(gd_model_file), str(data_file), "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, "abc"])
def test_model_file_with_a_non_numeric_fit_seconds_exits_2(tmp_path, cosine_files, gd_model_file,
                                                           value, capsys):
    _, _, data_file = cosine_files
    doc = json.loads(gd_model_file.read_text())
    doc["fit_seconds"] = value
    gd_model_file.write_text(json.dumps(doc))
    code = main(["predict", str(gd_model_file), str(data_file), "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "'fit_seconds' has the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["doe", "fit-trace", "export-corr"])
def test_output_path_that_cannot_be_written_exits_2(tmp_path, cosine_files, gd_model_file,
                                                    command, capsys):
    _, space_file, data_file = cosine_files
    out = str(tmp_path / "no such directory" / "out")
    args = {
        "doe": ["doe", str(space_file), "--n", "5", "--out", out],
        "fit-trace": ["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                        "--budget", "50", "--out-model", str(tmp_path / "m.json"),
                        "--trace", out],
        "export-corr": ["export-corr", str(gd_model_file), "--out", out],
    }[command]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no such directory" in err


def test_fit_whose_trace_cannot_be_written_leaves_no_model_file(tmp_path, cosine_files, capsys):
    _, space_file, data_file = cosine_files
    model_file = tmp_path / "m.json"
    assert main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "50", "--out-model", str(model_file),
                 "--trace", str(tmp_path / "no such directory" / "t.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not model_file.exists()


def test_a_trace_write_that_fails_after_the_fit_leaves_no_model_file(tmp_path, cosine_files,
                                                                       monkeypatch, capsys):
    _, space_file, data_file = cosine_files
    model_file = tmp_path / "m.json"

    def full_disk(records, path):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "_write_trace", full_disk)
    assert main(["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1",
                 "--budget", "50", "--out-model", str(model_file),
                 "--trace", str(tmp_path / "t.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")
    assert not model_file.exists()


@pytest.mark.parametrize("where", ["in a missing directory", "a directory"])
@pytest.mark.parametrize("command", ["fit --out-model", "fit --trace", "predict", "benchmark",
                                     "benchmark dragon-audit"])
def test_a_long_command_checks_its_output_file_before_the_work(tmp_path, cosine_files, monkeypatch,
                                                               capsys, command, where):
    _, space_file, data_file = cosine_files
    out = str(tmp_path / "no such directory" / "out" if where.startswith("in") else tmp_path)
    calls = []

    def recorder(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran before the output file was checked")
        return called

    monkeypatch.setattr(gp, "fit", recorder("gp.fit"))
    monkeypatch.setattr(gp, "load_model", recorder("gp.load_model"))
    monkeypatch.setitem(cli._PROBLEMS, "cosine", (recorder("the cosine runner"),
                                                  *cli._PROBLEMS["cosine"][1:]))
    monkeypatch.setattr(bm, "dragon_space_audit", recorder("the dragon audit"))
    model_file = str(tmp_path / "m.json")
    fit = ["fit", str(space_file), str(data_file), "--kernel", "gd", "--starts", "1"]
    args = {
        "fit --out-model": [*fit, "--out-model", out],
        "fit --trace": [*fit, "--out-model", model_file, "--trace", out],
        "predict": ["predict", model_file, str(data_file), "--out", out],
        "benchmark": ["benchmark", "--problem", "cosine", "--out", out],
        "benchmark dragon-audit": ["benchmark", "--problem", "dragon-audit", "--out", out],
    }[command]
    with pytest.raises(OSError) as opened:
        open(out, "w")
    assert main(args) == 2
    assert calls == []
    assert capsys.readouterr() == ("", f"error: {opened.value}\n")
    assert not os.path.exists(model_file)


def test_model_file_with_extra_point_row_exits_2(tmp_path, cosine_files, gd_model_file, capsys):
    _, _, data_file = cosine_files
    doc = json.loads(gd_model_file.read_text())
    doc["points"]["continuous"].append(doc["points"]["continuous"][0])
    gd_model_file.write_text(json.dumps(doc))
    code = main(["predict", str(gd_model_file), str(data_file), "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "points.continuous holds 41 rows for 40 targets" in capsys.readouterr().err


def test_export_corr_round_trips_level_names_with_commas_and_quotes(tmp_path):
    space_file = tmp_path / "quoted.space"
    space_file.write_text('continuous x 0 1\ncategorical c a,b "q" plain\n')
    space = DesignSpace((Continuous("x", 0.0, 1.0), Categorical("c", ("a,b", '"q"', "plain"))))
    points = lhs(space, 12, seed=0)
    data_file = tmp_path / "train.csv"
    save_dataset(Dataset(space, points, np.sin(6.0 * points.X[:, 0]) + points.C[:, 0]), data_file)
    model_file = tmp_path / "model.json"
    assert main(["fit", str(space_file), str(data_file), "--kernel", "cr", "--starts", "1",
                 "--budget", "40", "--out-model", str(model_file)]) == 0
    out = tmp_path / "corr.csv"
    assert main(["export-corr", str(model_file), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a,b", '"q"', "plain"]
    matrix = np.array([[float(v) for v in row] for row in rows[1:]])
    assert matrix.shape == (3, 3) and np.all(np.diag(matrix) == 1.0)


def test_model_file_with_a_spaced_level_name_exits_2(tmp_path, cosine_files, gd_model_file,
                                                     capsys):
    _, _, data_file = cosine_files
    doc = json.loads(gd_model_file.read_text())
    doc["space"][1]["levels"][0] = "1 a"
    gd_model_file.write_text(json.dumps(doc))
    code = main(["predict", str(gd_model_file), str(data_file), "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "without whitespace" in capsys.readouterr().err
