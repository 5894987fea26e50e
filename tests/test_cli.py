"""CLI subcommands, exit codes, and file outputs."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from dualgrad import bench, cli, oracle, trainer
from dualgrad import model as md
from helpers import summed


def run(argv):
    return cli.main(argv)


# --- gradcheck -------------------------------------------------------------------


def test_gradcheck_self_comparison(capsys):
    code = run(["gradcheck", "--n", "3", "--trials", "10",
                "--engine-a", "backprop", "--engine-b", "backprop",
                "--tol", "0", "--seed", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["max_abs_err"] == 0.0 and report["max_rel_err"] == 0.0


def test_gradcheck_ones_vs_backprop(capsys):
    code = run(["gradcheck", "--n", "2", "--trials", "100",
                "--engine-a", "ones", "--engine-b", "backprop",
                "--tol", "1e-10", "--seed", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["trials"] == 100
    # the default pair is ones against backprop
    assert run(["gradcheck", "--trials", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["engine_a"], report["engine_b"], report["pass"]) == ("ones", "backprop", True)
    # both forward rules, each through its registry entry's per-sample grad
    assert run(["gradcheck", "--trials", "5", "--engine-a", "ones", "--engine-b", "seeded"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["engine_a"], report["engine_b"], report["pass"]) == ("ones", "seeded", True)


def test_gradcheck_zero_tolerance_fails(capsys):
    # distinct engines round differently somewhere in 100 random models
    code = run(["gradcheck", "--n", "4", "--trials", "100",
                "--engine-a", "seeded", "--engine-b", "backprop",
                "--tol", "0", "--seed", "0"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False and report["max_rel_err"] > 0


def test_gradcheck_at_the_wide_width_passes_and_names_one_entry(capsys):
    # compare builds one path, the worst entry's, from its index
    assert run(["gradcheck", "--n", "128", "--trials", "3", "--engine-a", "seeded",
                "--engine-b", "backprop"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and (report["n"], report["trials"]) == (128, 3)
    assert re.fullmatch(r"w\[\d+\]|b", report["worst_index"]), report


def test_gradcheck_reports_the_last_of_equally_bad_trials(capsys):
    assert run(["gradcheck", "--trials", "10", "--engine-a", "backprop", "--engine-b", "backprop"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["worst_trial"] == 9 and report["worst_index"] == "w[0]"
    assert report["max_abs_err"] == 0.0 and report["max_rel_err"] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradcheck_summary_aggregates_compare_over_its_trials(seed, capsys):
    n, trials = 3, 12
    code = run(["gradcheck", "--n", str(n), "--trials", str(trials),
                "--engine-a", "seeded", "--engine-b", "backprop", "--tol", "0", "--seed", str(seed)])
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        m = bench.guarded_perceptron(n, rng)
        s = bench.random_sample(n, rng)
        reports.append(oracle.compare(md.grad_seeded(m, s), oracle.grad_backprop(m, s), 0.0))
    max_rel = max(r.max_rel_err for r in reports)
    worst_trial = max(t for t, r in enumerate(reports) if r.max_rel_err == max_rel)
    passed = all(r.passed for r in reports)
    expected = {
        "engine_a": "seeded",
        "engine_b": "backprop",
        "n": n,
        "trials": trials,
        "tol": 0.0,
        "max_abs_err": max(r.max_abs_err for r in reports),
        "max_rel_err": max_rel,
        "worst_index": reports[worst_trial].worst_index,
        "worst_trial": worst_trial,
        "pass": passed,
    }
    assert list(json.loads(capsys.readouterr().out).items()) == list(expected.items())
    assert code == (0 if passed else cli.CHECK_FAILED)


def test_gradcheck_unknown_engine(capsys):
    assert run(["gradcheck", "--engine-a", "magic"]) == 2


def test_gradcheck_nan_tolerance_is_usage_error(capsys):
    assert run(["gradcheck", "--trials", "5", "--tol", "nan"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_unknown_engine_is_one_error_everywhere(capsys):
    with pytest.raises(ValueError) as exc:
        trainer.engine("magic")
    message = str(exc.value)
    pattern = re.escape(message)
    assert message.startswith("unknown engine 'magic'")
    with pytest.raises(ValueError, match=pattern):
        trainer.TrainConfig(engine="magic")
    with pytest.raises(ValueError, match=pattern):
        bench.run_bench(widths=(4,), engines=("magic",), reps=10)
    for argv in (["gradcheck", "--engine-b", "magic"], ["bench", "--engines", "magic"]):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--frobnicate", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--out", "x.csv"])  # the CSV output is gone; --json is bench's only file
    assert exc.value.code == 2


# --- train ------------------------------------------------------------------------


def test_train_writes_logs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["train", "--dataset", "and", "--engine", "ones",
                "--lr", "0.5", "--epochs", "50", "--seed", "0",
                "--out", str(out)])
    assert code == 0
    assert (out / "log.json").exists() and (out / "log.csv").exists()
    blob = json.loads((out / "log.json").read_text())
    assert blob["config"]["engine"] == "ones"
    assert len(blob["records"]) == 50
    assert "final_loss=" in capsys.readouterr().out


@pytest.mark.parametrize("engine", ["ones", "seeded", "backprop"])
@pytest.mark.parametrize("batch", trainer.BATCH_MODES)
def test_train_on_line2d_writes_its_logs_under_every_engine_and_batch_mode(engine, batch, tmp_path,
                                                                           capsys):
    out = tmp_path / "run"
    assert run(["train", "--dataset", "line2d", "--engine", engine, "--batch", batch,
                "--epochs", "5", "--out", str(out)]) == 0
    # log.json is json.dumps(..., indent=2) of the log byte for byte
    data = (out / "log.json").read_bytes()
    log = json.loads(data)
    assert len(log["records"]) == 5 and not log["diverged"]
    assert data == (json.dumps(log, indent=2) + "\n").encode()
    # log.csv ends each of its 6 lines in \r\n; its epochs parse with int, every cell with float
    lines = (out / "log.csv").read_bytes().splitlines(keepends=True)
    assert len(lines) == 6 and all(line.endswith(b"\r\n") for line in lines)
    rows = list(csv.reader(line.decode() for line in lines[1:]))
    assert [len(row) for row in rows] == [4] * 5
    values = [[float(cell) for cell in row] for row in rows]
    assert [int(row[0]) for row in rows] == [v[0] for v in values] == [1, 2, 3, 4, 5]


def test_train_defaults_come_from_train_config(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", "--epochs", "3", "--out", str(out)]) == 0
    blob = json.loads((out / "log.json").read_text())
    assert blob["config"] == trainer.TrainConfig(epochs=3).to_dict()


def test_train_missing_dataset_file(capsys):
    assert run(["train", "--dataset", "nosuch.csv"]) == 2


@pytest.mark.parametrize("text, message", [("", "empty file"), ("x1,y\n", "no data rows")])
def test_a_csv_without_samples_is_refused_and_named(text, message, tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        trainer.load_csv_dataset(path)
    assert run(["train", "--dataset", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_train_unreadable_dataset_is_usage_error(tmp_path, capsys):
    assert run(["train", "--dataset", str(tmp_path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("directory", ["", "tmp"])
def test_a_directory_dataset_fails_the_check_and_names_the_input(directory, tmp_path, capsys):
    # Path("") is the working directory
    ref = str(tmp_path) if directory else ""
    assert run(["train", "--dataset", ref, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: dataset {ref!r} is neither builtin nor an existing file\n"
    assert not (tmp_path / "run").exists()


def test_an_empty_config_file_dataset_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("dataset=\n")
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:1: dataset: dataset '' is neither builtin nor an existing file\n"


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
def test_a_piped_dataset_still_trains(tmp_path, capsys):
    # a shell's <(...) names a pipe that exists but is no regular file
    read_end, write_end = os.pipe()
    os.write(write_end, b"x1,y\n1,0\n0,1\n")
    os.close(write_end)
    try:
        argv = ["train", "--dataset", f"/dev/fd/{read_end}", "--epochs", "2",
                "--out", str(tmp_path / "run")]
        assert run(argv) == 0
    finally:
        os.close(read_end)
    assert json.loads((tmp_path / "run" / "log.json").read_text())["records"][1]["epoch"] == 2


def test_train_zero_epochs_rejected(capsys):
    assert run(["train", "--dataset", "and", "--epochs", "0"]) == 2


def test_train_rejects_an_unusable_out_before_training(tmp_path, monkeypatch, capsys):
    trained = []
    monkeypatch.setattr(trainer, "train", lambda *args: trained.append(args))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["train", "--dataset", "and", "--epochs", "3", "--out", str(taken)]) == 2
    assert "exists" in capsys.readouterr().err
    assert trained == []


def test_train_csv_dataset(tmp_path, capsys):
    data = tmp_path / "half.csv"
    rows = ["x1,x2,y"] + [f"{x1},{x2},{1 if x1 + x2 > 0 else 0}"
                          for x1 in (-1.0, -0.5, 0.5, 1.0) for x2 in (-1.0, 1.0)]
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    code = run(["train", "--dataset", str(data), "--epochs", "20", "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "log.json").read_text())
    assert blob["config"]["dataset"] == str(data)


# --- bench ------------------------------------------------------------------------


def test_bench_small_sweep(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = run(["bench", "--widths", "4, 8", "--engines", "seeded, backprop",  # spaces allowed
                "--reps", "10", "--json", str(out)])
    assert code == 0
    points = json.loads(out.read_text())["points"]
    assert [(p["engine"], p["width"]) for p in points] == [  # 2 widths x 2 engines
        ("backprop", 4), ("backprop", 8), ("seeded", 4), ("seeded", 8)]
    assert [p["passes"] for p in points] == [1, 1, 5, 9]  # seeded: P + 1
    assert "ns/param" in capsys.readouterr().out


@pytest.mark.parametrize("where", ["missing/bench.json", "."])
def test_bench_rejects_an_unusable_json_before_timing(where, tmp_path, monkeypatch, capsys):
    timed = []
    monkeypatch.setattr(bench, "run_bench", lambda **sweep: timed.append(sweep))
    path = str(tmp_path / where)  # under a missing directory, or an existing directory
    assert run(["bench", "--widths", "4", "--reps", "10", "--json", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(path) in captured.err
    assert timed == []


def test_bench_low_reps_rejected(capsys):
    assert run(["bench", "--widths", "4", "--reps", "5"]) == 2


def test_bench_empty_engine_list_is_usage_error(capsys):
    assert run(["bench", "--engines", ",", "--widths", "4", "--reps", "10"]) == 2
    assert "engines" in capsys.readouterr().err


def test_bench_repeated_engines_or_widths_are_usage_errors(capsys):
    assert run(["bench", "--engines", "ones,ones", "--widths", "2", "--reps", "10"]) == 2
    assert run(["bench", "--widths", "4,4", "--reps", "10"]) == 2
    assert "must not repeat" in capsys.readouterr().err


def test_bench_malformed_widths():
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--widths", "8,abc"])
    assert exc.value.code == 2


# --- the engine registry --------------------------------------------------------------


def test_train_bench_and_cli_share_one_engine_registry(monkeypatch, capsys):
    assert bench.ENGINES is trainer.ENGINES and cli.ENGINES is trainer.ENGINES
    rule = oracle.grad_backprop
    monkeypatch.setitem(trainer.ENGINES, "backprop2",
                        trainer.Engine(rule, trainer.stepwise(summed(rule))))
    assert run(["gradcheck", "--n", "3", "--trials", "5", "--engine-a", "backprop2",
                "--engine-b", "backprop", "--tol", "0"]) == 0
    assert [r.engine for r in bench.run_bench(widths=(3,), engines=("backprop2",), reps=10)] == [
        "backprop2"
    ]
    assert trainer.TrainConfig(engine="backprop2").engine == "backprop2"


# --- config files -------------------------------------------------------------------


def test_config_file_fills_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo config\nlr=0.9\nepochs=30\ndataset=or\n")
    out = tmp_path / "run"
    code = run(["train", "--config", str(cfg), "--lr", "0.25", "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "log.json").read_text())
    assert blob["config"]["learning_rate"] == 0.25  # flag beats file
    assert blob["config"]["epochs"] == 30  # file beats default
    assert blob["config"]["dataset"] == "or"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum=0.9\n")
    assert run(["train", "--config", str(cfg)]) == 2


def test_config_file_bad_syntax(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs 30\n")
    assert run(["train", "--config", str(cfg)]) == 2


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfdataset=or\nepochs=3\n")
    out = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    blob = json.loads((out / "log.json").read_text())
    assert blob["config"]["dataset"] == "or" and blob["config"]["epochs"] == 3


def test_config_file_non_utf8_byte_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"epochs=3\nlr=\xff\n")
    assert run(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: byte 0xff is not UTF-8 (invalid start byte)\n")


def test_config_file_lines_break_at_cr_lf_or_crlf_only(tmp_path, capsys):
    # \x0c, \x1c and \u2028 sit inside a value; a bare \r ends a line, as in a CSV
    cfg = tmp_path / "ff.cfg"
    cfg.write_bytes("dataset=or\rout=run\x0c\x1c\u2028dir\r\nepochs=3\n".encode())
    assert cli._read_config_file(str(cfg), cli._TRAIN_FLAGS) == {
        "dataset": ("or", 1), "out": ("run\x0c\x1c\u2028dir", 2), "epochs": ("3", 3)}
    cfg.write_bytes("dataset=or\rout=run\x0cdir\r\nbogus=1\n".encode())
    assert run(["train", "--config", str(cfg)]) == 2
    assert f"{cfg}:3: unknown config key 'bogus'" in capsys.readouterr().err


def test_bench_prints_cost_fits_only_for_a_sweep(capsys):
    argv = ["bench", "--engines", "seeded,ones", "--reps", "10"]
    assert run(argv + ["--widths", "2,4"]) == 0
    out = capsys.readouterr().out
    for engine in ("seeded", "ones"):
        assert f"{engine:>9}: ns/param vs P" in out
    assert "total ns vs P" in out

    assert run(argv + ["--widths", "4"]) == 0
    out = capsys.readouterr().out
    assert "ns/param" in out and "vs P" not in out


@pytest.mark.parametrize("command, values", [
    ("gradcheck", {"n": "3", "trials": "4", "engine-a": "seeded", "engine-b": "backprop",
                   "tol": "1e-9", "seed": "2"}),
    ("train", {"dataset": "or", "engine": "ones", "lr": "0.25", "epochs": "4",
               "batch": "full_batch", "seed": "3", "out": "OUT/run"}),
    ("bench", {"widths": "3", "engines": "ones", "reps": "10", "json": "OUT/bench.json"}),
])
def test_every_flag_is_a_config_key(command, values, tmp_path, capsys):
    with pytest.raises(SystemExit):
        run([command, "--help"])
    flags = set(re.findall(r"--([a-z][\w-]*)", capsys.readouterr().out))
    assert flags - {"help", "config"} == set(values)
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k}={v.replace('OUT', str(tmp_path))}\n" for k, v in values.items()))
    assert run([command, "--config", str(cfg)]) == 0
    if command == "gradcheck":
        report = json.loads(capsys.readouterr().out)
        assert (report["n"], report["trials"], report["engine_a"], report["tol"]) == (
            3, 4, "seeded", 1e-9)
    elif command == "train":
        config = json.loads((tmp_path / "run" / "log.json").read_text())["config"]
        assert config == trainer.TrainConfig(dataset="or", engine="ones", learning_rate=0.25,
                                             epochs=4, batch_mode="full_batch",
                                             rng_seed=3).to_dict()
    else:
        points = json.loads((tmp_path / "bench.json").read_text())["points"]
        assert [(p["engine"], p["width"], p["passes"]) for p in points] == [("ones", 3, 1)]


@pytest.mark.parametrize("command, line", [
    ("train", "epochs=abc"),
    ("train", "lr=fast"),
    ("bench", "widths=8,abc"),
    ("gradcheck", "tol=tiny"),
    ("train", "epochs=0"),
    ("train", "momentum=0.9"),
    ("bench", "momentum=0.9"),
    ("train", "epochs=5\nepochs=7"),
    ("gradcheck", "seed=1\n# again\nseed = 1"),
    ("bench", "reps=10\nreps=20"),
    ("bench", "out=b.csv"),  # the CSV output is gone; --json is bench's only file
])
def test_config_file_value_error_names_file_and_line(command, line, tmp_path, capsys):
    # the error names the last line of `line`, which starts on line 3
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# comment\n\n{line}\n")
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:{3 + line.count(chr(10))}: ")
    if "\n" in line:  # a repeated key
        key = line.partition("=")[0]
        assert err.endswith(f": repeated config key {key!r} (first on line 3)\n")


@pytest.mark.parametrize("command, line", [
    ("train", "dataset=nosuch.csv"),
    ("bench", "reps=5"),
    ("bench", "engines=ones,ones"),
    ("bench", "json=no/such/dir/b.json"),
    ("gradcheck", "engine-a=magic"),
    ("gradcheck", "n=0"),
    ("gradcheck", "tol=nan"),
    ("train", "seed=-1"),
    ("gradcheck", "seed=-1"),
])
def test_config_file_check_error_names_file_line_and_key(command, line, tmp_path, capsys):
    # values that parse but fail a later check are reported at their line too
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# comment\n{line}\n")
    assert run([command, "--config", str(cfg)]) == 2
    key = line.partition("=")[0]
    assert capsys.readouterr().err.startswith(f"error: {cfg}:2: {key}: ")


def test_bench_json_has_env_and_one_record_per_point(tmp_path, capsys):
    path = tmp_path / "bench.json"
    assert run(["bench", "--widths", "2,5", "--engines", "seeded,ones", "--reps", "10",
                "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert set(doc) == {"env", "points"}
    assert set(doc["env"]) == {"python", "numpy", "nproc", "git_sha", "src_sha256"}
    assert len(doc["env"]["src_sha256"]) == 64
    for point in doc["points"]:
        assert set(point) == {"engine", "width", "P", "passes", "reps", "median_ns", "iqr_ns"}
    assert [(p["engine"], p["width"], p["P"], p["passes"], p["reps"]) for p in doc["points"]] == [
        ("ones", 2, 2, 1, 10), ("ones", 5, 5, 1, 10),
        ("seeded", 2, 2, 3, 10), ("seeded", 5, 5, 6, 10),
    ]
