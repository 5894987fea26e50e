"""Command-line front end: gradient checking, training, benchmarking.

Exit codes are stable for scripting: 0 success, 1 a failed check or
diverged training run, 2 usage or config errors. Each subcommand accepts
--config FILE with flat key=value lines mirroring its flags; explicit
flags win over file values.
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
    return [part for part in text.split(",") if part != ""]


# flag name -> (converter, default); also the schema for config files
_GRADCHECK_FLAGS = {
    "n": (int, 2),
    "trials": (int, 100),
    "engine-a": (str, "ones"),
    "engine-b": (str, "backprop"),
    "tol": (float, 1e-10),
    "seed": (int, 0),
}
_TRAIN_FLAGS = {
    "dataset": (str, "and"),
    "engine": (str, "backprop"),
    "lr": (float, 0.5),
    "epochs": (int, 2000),
    "batch": (str, "per_sample"),
    "seed": (int, 0),
    "out": (str, "train_out"),
}
_BENCH_FLAGS = {
    "widths": (_int_list, list(_bench.DEFAULT_WIDTHS)),
    "engines": (_str_list, list(ENGINES)),
    "reps": (int, 30),
    "out": (str, None),
}


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _merge(args: argparse.Namespace, flag_schema: dict) -> dict:
    """Apply precedence: explicit flag > config file entry > built-in default."""
    config: dict[str, str] = {}
    if args.config is not None:
        config = _read_config_file(args.config)
        unknown = set(config) - set(flag_schema)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for name, (convert, default) in flag_schema.items():
        attr = name.replace("-", "_")
        value = getattr(args, attr)
        if value is None and name in config:
            value = convert(config[name])
        if value is None:
            value = default
        merged[attr] = value
    return merged


def _check_engine(tag: str) -> str:
    if tag not in ENGINES:
        raise ValueError(f"unknown engine {tag!r}, expected one of {tuple(ENGINES)}")
    return tag


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    v = _merge(args, _GRADCHECK_FLAGS)
    _check_engine(v["engine_a"])
    _check_engine(v["engine_b"])
    if v["n"] < 1 or v["trials"] < 1:
        raise ValueError("--n and --trials must be >= 1")
    if v["tol"] < 0:
        raise ValueError("--tol must be >= 0")

    rng = np.random.default_rng(v["seed"])
    grad_a = ENGINES[v["engine_a"]]
    grad_b = ENGINES[v["engine_b"]]
    max_abs = 0.0
    max_rel = 0.0
    worst_index = ""
    worst_trial = -1
    all_pass = True
    for trial in range(v["trials"]):
        m = _bench.guarded_perceptron(v["n"], rng)
        s = _bench.random_sample(v["n"], rng)
        report = _oracle.compare(grad_a(m, s), grad_b(m, s), v["tol"])
        max_abs = max(max_abs, report.max_abs_err)
        if report.max_rel_err >= max_rel:
            max_rel = report.max_rel_err
            worst_index = report.worst_index
            worst_trial = trial
        all_pass = all_pass and report.passed
    summary = {
        "engine_a": v["engine_a"],
        "engine_b": v["engine_b"],
        "n": v["n"],
        "trials": v["trials"],
        "tol": v["tol"],
        "max_abs_err": max_abs,
        "max_rel_err": max_rel,
        "worst_index": worst_index,
        "worst_trial": worst_trial,
        "pass": all_pass,
    }
    print(json.dumps(summary, indent=2))
    return 0 if all_pass else CHECK_FAILED


def _cmd_train(args: argparse.Namespace) -> int:
    v = _merge(args, _TRAIN_FLAGS)
    cfg = _trainer.TrainConfig(
        dataset=v["dataset"],
        engine=v["engine"],
        learning_rate=v["lr"],
        epochs=v["epochs"],
        batch_mode=v["batch"],
        rng_seed=v["seed"],
    )
    dataset = _trainer.resolve_dataset(cfg.dataset)
    log = _trainer.train(cfg, dataset)
    out_dir = Path(v["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _trainer.write_log_json(log, out_dir / "log.json")
    _trainer.write_log_csv(log, out_dir / "log.csv")
    print(f"dataset={dataset.name} engine={cfg.engine} epochs={len(log.records)}")
    print(f"final_loss={log.final_loss!r} singular_skips={log.singular_skips} diverged={log.diverged}")
    print(f"logs written to {out_dir}")
    return CHECK_FAILED if log.diverged else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    v = _merge(args, _BENCH_FLAGS)
    for tag in v["engines"]:
        _check_engine(tag)
    results = _bench.run_bench(v["widths"], v["engines"], reps=v["reps"])
    print(_bench.format_table(results))
    fits = _bench.format_fits(results)
    if fits:
        print()
        print(fits)
    if v["out"] is not None:
        _bench.write_csv(results, v["out"])
        print(f"csv written to {v['out']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgrad",
        description="Forward-mode dual-number gradients: check, train, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="compare two gradient engines on random models")
    p.add_argument("--n", type=int, help="input width")
    p.add_argument("--trials", type=int, help="number of random comparisons")
    p.add_argument("--engine-a", type=str, help="first engine: ones|seeded|backprop")
    p.add_argument("--engine-b", type=str, help="second engine: ones|seeded|backprop")
    p.add_argument("--tol", type=float, help="worst relative error allowed")
    p.add_argument("--seed", type=int, help="rng seed")
    p.add_argument("--config", type=str, help="key=value file mirroring the flags")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("train", help="train a perceptron on a builtin or CSV dataset")
    p.add_argument("--dataset", type=str, help="and|or|nand|line2d or a CSV path")
    p.add_argument("--engine", type=str, help="ones|seeded|backprop")
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--epochs", type=int, help="number of epochs")
    p.add_argument("--batch", type=str, help="per_sample|full_batch")
    p.add_argument("--seed", type=int, help="rng seed")
    p.add_argument("--out", type=str, help="output directory for log.json/log.csv")
    p.add_argument("--config", type=str, help="key=value file mirroring the flags")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench", help="time the gradient engines over a width sweep")
    p.add_argument("--widths", type=_int_list, help="comma-separated input widths")
    p.add_argument("--engines", type=_str_list, help="comma-separated engine tags")
    p.add_argument("--reps", type=int, help="timing repetitions per point (>= 10)")
    p.add_argument("--out", type=str, help="CSV output path")
    p.add_argument("--config", type=str, help="key=value file mirroring the flags")
    p.set_defaults(func=_cmd_bench)

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
