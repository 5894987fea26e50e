"""Command-line front end: gradient checking, training, benchmarking.

Exit codes are stable for scripting: 0 success, 1 a failed check or
diverged training run, 2 usage or config errors. Each subcommand accepts
--config FILE with flat key=value lines mirroring its flags, each key at
most once; explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as _bench
from . import oracle as _oracle
from . import trainer as _trainer
from .trainer import ENGINES

USAGE_ERROR = 2
CHECK_FAILED = 1


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _str_list(text: str) -> list[str]:
    parts = (part.strip() for part in text.split(","))
    return [part for part in parts if part != ""]


_ENGINE_TAGS = "|".join(ENGINES)

# Per subcommand: flag name -> (converter, help, default). Each table
# builds its argparse parser and is the schema of its config files. A
# default of None leaves the value unset, so train falls back to
# TrainConfig's defaults and bench to run_bench's.
_GRADCHECK_FLAGS = {
    "n": (int, "input width", 2),
    "trials": (int, "number of random comparisons", 100),
    "engine-a": (str, f"first engine: {_ENGINE_TAGS}", "ones"),
    "engine-b": (str, f"second engine: {_ENGINE_TAGS}", "backprop"),
    "tol": (float, "worst relative error allowed", 1e-10),
    "seed": (int, "rng seed", 0),
}
_TRAIN_FLAGS = {
    "dataset": (str, "|".join(_trainer.BUILTIN_DATASETS) + " or a CSV path", None),
    "engine": (str, _ENGINE_TAGS, None),
    "lr": (float, "learning rate", None),
    "epochs": (int, "number of epochs", None),
    "batch": (str, "|".join(_trainer.BATCH_MODES), None),
    "seed": (int, "rng seed", None),
    "out": (str, "output directory for log.json/log.csv", "train_out"),
}
# train flags whose TrainConfig field has another name
_TRAIN_FIELDS = {"lr": "learning_rate", "batch": "batch_mode", "seed": "rng_seed"}
_BENCH_FLAGS = {
    "widths": (_int_list, "comma-separated input widths", None),
    "engines": (_str_list, "comma-separated engine tags", None),
    "reps": (int, f"timing repetitions per point (>= {_bench.MIN_REPS})", None),
    "json": (str, "JSON output path: every point with its median and IQR, plus the environment",
             None),
}


def _read_config_file(path: str, flags: dict) -> dict[str, tuple[str, int]]:
    """key -> (value, line number) from flat key=value lines naming flags once each."""
    values = {}
    for lineno, raw in enumerate(_trainer.split_lines(_trainer.read_utf8(path)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in flags:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}, expected {list(flags)}")
        if key in values:
            raise ValueError(
                f"{path}:{lineno}: repeated config key {key!r} (first on line {values[key][1]})"
            )
        values[key] = (value.strip(), lineno)
    return values


def _merge(args: argparse.Namespace, flags: dict, check) -> dict:
    """Apply precedence: explicit flag > config file entry > table default.

    Values that none of the three sets are left out. ``check(attr, value)``
    vets each value taken from a flag or the file; the error of a file
    value names its line.
    """
    config = {} if args.config is None else _read_config_file(args.config, flags)
    merged = {}
    for name, (convert, _, default) in flags.items():
        attr = name.replace("-", "_")
        value = getattr(args, attr)
        if value is not None:
            check(attr, value)
        elif name in config:
            text, lineno = config[name]
            try:
                value = convert(text)
                check(attr, value)
            except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{args.config}:{lineno}: {name}: {exc}") from None
        else:
            value = default
        if value is not None:
            merged[attr] = value
    return merged


def _check_gradcheck_value(attr: str, value) -> None:
    if attr in ("engine_a", "engine_b"):
        _trainer.engine(value)
    elif attr in ("n", "trials") and value < 1:
        raise ValueError(f"--{attr} must be >= 1, got {value}")
    elif attr == "tol" and not value >= 0:  # also rejects nan
        raise ValueError(f"--tol must be >= 0, got {value}")
    elif attr == "seed" and value < 0:
        raise ValueError(f"--seed must be >= 0, got {value}")


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    v = _merge(args, _GRADCHECK_FLAGS, _check_gradcheck_value)
    grad_a = _trainer.engine(v["engine_a"]).grad
    grad_b = _trainer.engine(v["engine_b"]).grad

    rng = np.random.default_rng(v["seed"])
    max_abs = 0.0
    worst_trial, worst = -1, None  # the last of the trials with the largest max_rel_err
    all_pass = True
    for trial in range(v["trials"]):
        m = _bench.guarded_perceptron(v["n"], rng)
        s = _bench.random_sample(v["n"], rng)
        report = _oracle.compare(grad_a(m, s), grad_b(m, s), v["tol"])
        max_abs = max(max_abs, report.max_abs_err)
        if worst is None or report.max_rel_err >= worst.max_rel_err:
            worst_trial, worst = trial, report
        all_pass = all_pass and report.passed
    summary = {
        "engine_a": v["engine_a"],
        "engine_b": v["engine_b"],
        "n": v["n"],
        "trials": v["trials"],
        "tol": v["tol"],
        "max_abs_err": max_abs,
        "max_rel_err": worst.max_rel_err,
        "worst_index": worst.worst_index,
        "worst_trial": worst_trial,
        "pass": all_pass,
    }
    print(json.dumps(summary, indent=2))
    return 0 if all_pass else CHECK_FAILED


def _train_config(values: dict) -> _trainer.TrainConfig:
    """TrainConfig from train flag values; out is not one of its fields."""
    fields = {_TRAIN_FIELDS.get(k, k): v for k, v in values.items() if k != "out"}
    return _trainer.TrainConfig(**fields)


def _check_train_value(attr: str, value) -> None:
    """Vet one train value alone, so that a config file error can name its line."""
    _train_config({attr: value})
    if attr == "dataset":
        _trainer.check_dataset_ref(value)


def _cmd_train(args: argparse.Namespace) -> int:
    v = _merge(args, _TRAIN_FLAGS, _check_train_value)
    out_dir = Path(v["out"])
    cfg = _train_config(v)
    dataset = _trainer.resolve_dataset(cfg.dataset)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before training
    log = _trainer.train(cfg, dataset)
    _trainer.write_log_json(log, out_dir / "log.json")
    _trainer.write_log_csv(log, out_dir / "log.csv")
    print(f"dataset={dataset.name} engine={cfg.engine} epochs={len(log.records)}")
    print(f"final_loss={log.final_loss!r} singular_skips={log.singular_skips} diverged={log.diverged}")
    print(f"logs written to {out_dir}")
    return CHECK_FAILED if log.diverged else 0


def _check_bench_value(attr: str, value) -> None:
    """Vet one bench value alone; the JSON path is checked without creating anything."""
    if attr == "json":
        path = Path(value)
        if path.is_dir():
            raise ValueError(f"--json {value!r} is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"--json {value!r}: {str(path.parent)!r} is not a directory")
    else:
        _bench.check_sweep(**{attr: value})


def _cmd_bench(args: argparse.Namespace) -> int:
    v = _merge(args, _BENCH_FLAGS, _check_bench_value)  # an unusable --json fails before timing
    json_path = v.pop("json", None)
    results = _bench.run_bench(**v)
    print(_bench.format_table(results))
    fits = _bench.format_fits(results)
    if fits:
        print()
        print(fits)
    if json_path is not None:
        _bench.write_json(results, json_path)
        print(f"json written to {json_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgrad",
        description="Forward-mode dual-number gradients: check, train, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, flags, func, summary in [
        ("gradcheck", _GRADCHECK_FLAGS, _cmd_gradcheck,
         "compare two gradient engines on random models"),
        ("train", _TRAIN_FLAGS, _cmd_train, "train a perceptron on a builtin or CSV dataset"),
        ("bench", _BENCH_FLAGS, _cmd_bench, "time the gradient engines over a width sweep"),
    ]:
        p = sub.add_parser(command, help=summary)
        for name, (convert, text, _) in flags.items():
            p.add_argument(f"--{name}", type=convert, help=text)
        p.add_argument("--config", type=str, help="key=value file mirroring the flags")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
