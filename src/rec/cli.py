"""Command-line surface: `run <config>`, `report <dir>`, `checkpoint <save|load>`.

Config files are plain key=value lines (# comments). Every emitted number is
recomputable from the persisted JSONL records; see docs/formats.md for all
schemas.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .controller import SearchConfig
from .data import Dataset, load_idx_dataset, synthetic_classes
from .distill import CompressConfig
from .lifelong import (METHODS, gen_permuted_tasks, gen_rotated_tasks, gen_split_tasks,
                       method_config, run_sequence, subseed)
from .netcore import Arch, init_network
from .regularize import PenaltyConfig, TrainingDiverged

_DEFAULTS: dict[str, str] = {
    "dataset": "synthetic",
    "task_kind": "permuted",
    "tasks": "5",
    "methods": "sn,ewc,mwc",
    "seeds": "0,1,2",
    "hidden": "40,40",
    "side": "8",
    "classes": "10",
    "train_samples": "2000",
    "test_samples": "1000",
    "data_seed": "0",
    "lambda_ewc": "40",
    "lambda_21": "3e-5",
    "lambda_1": "1e-5",
    "epsilon": "1e-8",
    "epochs": "8",
    "batch_size": "256",
    "lr": "0.03",
    "momentum": "0.0",
    "fisher_samples": "600",
    "search_budget": "6",
    "m_children": "3",
    "child_epochs": "2",
    "controller_lr": "0.05",
    "compress_epochs": "20",
    "compress_lr": "0.005",
    "reward_scope": "new-only",
    "out_dir": "results",
}

# Files `rec run` writes into out_dir; it removes earlier ones before its first
# job, so the reports describe only the run that wrote them.
_OWNED_PATTERNS = ("results_*.jsonl", "search_*.jsonl", "final_*.recnet",
                   "summary.csv", "series.csv")


# Smallest valid value of each integer key; `seeds` and `hidden` are
# comma-separated lists, and every element is checked.
_INT_MIN = {"tasks": 1, "seeds": 0, "hidden": 1, "side": 1, "classes": 1,
            "train_samples": 1, "test_samples": 1, "data_seed": 0, "epochs": 1,
            "batch_size": 1, "fisher_samples": 1, "search_budget": 1,
            "m_children": 1, "child_epochs": 1, "compress_epochs": 1}
_LIST_KEYS = ("seeds", "hidden")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v > 0, "> 0")
# Valid range of each float key, as a test and as the error message states it.
_FLOAT_RANGE: dict[str, tuple[Callable[[float], bool], str]] = {
    "lambda_ewc": _NONNEGATIVE, "lambda_21": _NONNEGATIVE, "lambda_1": _NONNEGATIVE,
    "epsilon": (lambda v: 0 < v <= 1e-4, "in (0, 1e-4]"),
    "lr": _POSITIVE, "controller_lr": _POSITIVE, "compress_lr": _POSITIVE,
    "momentum": (lambda v: 0 <= v < 1, "in [0, 1)"),
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    values: dict[str, str] = field(default_factory=dict)

    def __getitem__(self, key: str) -> str:
        return self.values[key]

    def get_int(self, key: str) -> int:
        return int(self.values[key])

    def get_float(self, key: str) -> float:
        return float(self.values[key])

    def get_list(self, key: str) -> list[str]:
        return [v.strip() for v in self.values[key].split(",") if v.strip()]


def parse_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {p}: {e}") from None
    values, key_line = dict(_DEFAULTS), {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{ln}: expected key=value, got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{p}:{ln}: unknown config key {key!r}")
        if key_line.setdefault(key, ln) != ln:
            raise ConfigError(f"{p}:{ln}: config key {key!r} already set on line {key_line[key]}")
        values[key] = val
    cfg = RunConfig(values)
    for m in cfg.get_list("methods"):
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; known: {', '.join(METHODS)}")
    if cfg["task_kind"] not in ("permuted", "rotated", "split"):
        raise ConfigError(f"unknown task_kind {cfg['task_kind']!r}")
    if cfg["reward_scope"] not in ("new-only", "all-learned"):
        raise ConfigError(f"unknown reward_scope {cfg['reward_scope']!r}")
    _check_numbers(cfg)
    for key, parse in (("methods", str), ("seeds", int)):
        items = [parse(v) for v in cfg.get_list(key)]
        if not items:
            raise ConfigError(f"{key} is empty")
        repeated = [v for i, v in enumerate(items) if v in items[:i]]
        if repeated:  # each (method, seed) pair is one job and names its files
            raise ConfigError(f"{key} = {cfg[key]!r}: {repeated[0]} is listed twice")
    expanding = [m for m in cfg.get_list("methods") if METHODS[m][1]]
    if expanding and not cfg.get_list("hidden"):
        raise ConfigError("hidden is empty, but expanding methods need a hidden layer: "
                          + ", ".join(expanding))
    if cfg["dataset"] != "synthetic":
        _idx_pairs(cfg["dataset"])
    if (cfg["task_kind"] == "split" and cfg["dataset"] == "synthetic"
            and cfg.get_int("classes") % cfg.get_int("tasks")):
        raise ConfigError(f"split tasks need classes ({cfg['classes']}) divisible by "
                          f"tasks ({cfg['tasks']})")
    return cfg


def _check_numbers(cfg: RunConfig) -> None:
    """Every numeric value parses as its type, is finite and is in range."""
    for key, lo in _INT_MIN.items():
        for item in cfg.get_list(key) if key in _LIST_KEYS else [cfg[key]]:
            try:
                ok = int(item) >= lo
            except ValueError:
                raise ConfigError(f"{key} = {cfg[key]!r}: {item!r} is not an integer") from None
            if not ok:
                raise ConfigError(f"{key} = {cfg[key]!r}: must be >= {lo}")
    for key, (in_range, wanted) in _FLOAT_RANGE.items():
        try:
            v = float(cfg[key])
        except ValueError:
            raise ConfigError(f"{key} = {cfg[key]!r}: not a number") from None
        if not (math.isfinite(v) and in_range(v)):
            raise ConfigError(f"{key} = {cfg[key]!r}: must be finite and {wanted}")


def _idx_pairs(spec: str) -> list[tuple[str, str]]:
    """A non-synthetic `dataset` value as (images, labels) IDX path pairs:
    the training pair, then optionally the test pair."""
    parts = [tuple(path.strip() for path in part.split(",")) for part in spec.split(";")]
    if len(parts) > 2 or any(len(p) != 2 or not all(p) for p in parts):
        raise ConfigError(f"dataset = {spec!r}: expected synthetic or "
                          "train_imgs,train_labels[;test_imgs,test_labels]")
    return parts


def _build_tasks(cfg: RunConfig):
    data_seed = cfg.get_int("data_seed")
    if cfg["dataset"] == "synthetic":
        train, test = synthetic_classes(cfg.get_int("train_samples"),
                                        cfg.get_int("test_samples"),
                                        cfg.get_int("side"), cfg.get_int("classes"),
                                        subseed(data_seed, "data"))
    else:
        pairs = _idx_pairs(cfg["dataset"])
        train, (rows, cols) = load_idx_dataset(*pairs[0])
        if len(pairs) > 1:
            test, test_shape = load_idx_dataset(*pairs[1])
            if test_shape != (rows, cols):
                raise ValueError(f"train and test images differ in size: {pairs[0][0]} holds "
                                 f"{rows}x{cols} images, {pairs[1][0]} holds "
                                 f"{test_shape[0]}x{test_shape[1]} images")
        else:
            cut = int(len(train) * 0.8)  # first 80% train, the rest test, both views
            if cut == 0:
                raise ValueError(f"{pairs[0][0]} holds {len(train)} image, and its first "
                                 "80% (the training part) holds none")
            train, test = (Dataset(train.inputs[part], train.labels[part])
                           for part in (slice(None, cut), slice(cut, None)))
        if cfg["task_kind"] == "rotated" and rows != cols:  # rotation reads a square grid
            raise ValueError(f"rotated tasks need square images; {pairs[0][0]} holds "
                             f"{rows}x{cols} images")
    gen = {"permuted": gen_permuted_tasks, "rotated": gen_rotated_tasks,
           "split": gen_split_tasks}[cfg["task_kind"]]
    tasks = gen(train, test, cfg.get_int("tasks"), data_seed)
    # As in run_sequence, methods that expand and compress search on validation rows.
    searching = ", ".join(m for m in cfg.get_list("methods") if METHODS[m][1] and METHODS[m][2])
    for t, task in enumerate(tasks, 1):
        rows = {"train": len(task.train), "validation": len(task.val), "test": len(task.test)}
        for split, needed in (("train", True), ("test", True), ("validation", bool(searching))):
            if needed and rows[split] == 0:
                why = f", which the search of {searching} scores on" if split == "validation" else ""
                raise ValueError(f"task {t} has an empty {split} split{why}: "
                                 + ", ".join(f"{n} {s}" for s, n in rows.items()) + " rows")
    return tasks


def _method_cfg(cfg: RunConfig, method: str):
    penalty = PenaltyConfig(cfg.get_float("lambda_ewc"), cfg.get_float("lambda_21"),
                            cfg.get_float("lambda_1"), cfg.get_float("epsilon"))
    search = SearchConfig(budget=cfg.get_int("search_budget"),
                          m_children=cfg.get_int("m_children"),
                          child_epochs=cfg.get_int("child_epochs"),
                          controller_lr=cfg.get_float("controller_lr"))
    return method_config(
        method, penalty,
        epochs=cfg.get_int("epochs"), batch_size=cfg.get_int("batch_size"),
        lr=cfg.get_float("lr"), momentum=cfg.get_float("momentum"),
        fisher_samples=cfg.get_int("fisher_samples"), search=search,
        compress_cfg=CompressConfig(epochs=cfg.get_int("compress_epochs"),
                                    lr=cfg.get_float("compress_lr")),
        reward_scope=cfg["reward_scope"],
    )


def _run_one(cfg: RunConfig, tasks, method: str, seed: int, out: Path) -> None:
    hidden = tuple(int(w) for w in cfg.get_list("hidden"))
    result = run_sequence(tasks, _method_cfg(cfg, method), seed, hidden)
    with open(out / f"results_{method}_s{seed}.jsonl", "w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(json.dumps({"method": method, "seed": seed, **rec},
                                sort_keys=True) + "\n")
    if result.search_log:
        with open(out / f"search_{method}_s{seed}.jsonl", "w", encoding="utf-8") as fh:
            for rec in result.search_log:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    save_checkpoint(out / f"final_{method}_s{seed}.recnet", result.final_net)


def cmd_run(config_path: str) -> int:
    try:
        cfg = parse_config(config_path)
    except (FileNotFoundError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        for pattern in _OWNED_PATTERNS:
            for stale in out.glob(pattern):
                stale.unlink()
        tasks = _build_tasks(cfg)
        jobs = [(m, int(s)) for m in cfg.get_list("methods") for s in cfg.get_list("seeds")]
        failed = 0
        for m, s in jobs:
            try:  # a failed job writes no files; the other jobs still run
                _run_one(cfg, tasks, m, s, out)
            except TrainingDiverged as e:
                print(f"job {m} s{s} diverged: {e}", file=sys.stderr)
                failed += 1
            except Exception as e:  # noqa: BLE001
                print(f"job {m} s{s} failed: {type(e).__name__}: {e}", file=sys.stderr)
                failed += 1
        if failed < len(jobs):
            _write_reports(out)
    except Exception as e:  # noqa: BLE001 - diagnostics then nonzero exit
        print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 1 if failed else 0


def _load_records(results_dir: Path) -> list[dict]:
    records = []
    for path in sorted(results_dir.glob("results_*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    if not records:
        raise ValueError(f"no results_*.jsonl records under {results_dir}")
    return records


def _write_reports(results_dir: Path) -> list[str]:
    """summary.csv (model-size / final-accuracy table) and series.csv
    (avg-per-task and task-1 forgetting curves); returns the printed table."""
    records = _load_records(results_dir)
    runs: dict[tuple[str, int], list[dict]] = {}
    for rec in records:
        runs.setdefault((rec["method"], rec["seed"]), []).append(rec)

    summary_lines = ["method,seed,params_task1,params_final,acc_final"]
    series_lines = ["method,seed,task,avg_per_task,task1_acc"]
    table = [f"{'method':<12} {'seed':>4} {'#W(1)':>8} {'#W(T)':>8} {'ACC(T)':>8}"]
    for (method, seed), recs in sorted(runs.items()):
        recs = sorted(recs, key=lambda r: r["task"])
        final = recs[-1]
        acc_final = sum(final["accuracies"]) / len(final["accuracies"])
        summary_lines.append(f"{method},{seed},{recs[0]['param_count']},"
                             f"{final['param_count']},{acc_final:.6f}")
        table.append(f"{method:<12} {seed:>4} {recs[0]['param_count']:>8} "
                     f"{final['param_count']:>8} {acc_final:>8.4f}")
        for rec in recs:
            avg = sum(rec["accuracies"]) / len(rec["accuracies"])
            series_lines.append(f"{method},{seed},{rec['task']},{avg:.6f},"
                                f"{rec['accuracies'][0]:.6f}")
    (results_dir / "summary.csv").write_text("\n".join(summary_lines) + "\n")
    (results_dir / "series.csv").write_text("\n".join(series_lines) + "\n")
    return table


def cmd_report(results_dir: str) -> int:
    try:
        table = _write_reports(Path(results_dir))
    except Exception as e:  # noqa: BLE001
        print(f"report failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print("\n".join(table))
    return 0


def cmd_checkpoint(mode: str, path: str, arch_spec: str | None, seed: int) -> int:
    try:
        if mode == "load":
            net, anchor, fisher = load_checkpoint(path)
            print(f"arch: {'-'.join(map(str, net.arch.widths))}")
            print(f"params: {net.param_count()}")
            print(f"anchor: {'yes' if anchor is not None else 'no'}")
            print(f"fisher: {'yes' if fisher is not None else 'no'}")
        else:
            if not arch_spec:
                print("error: checkpoint save requires --arch d,h1,...,K", file=sys.stderr)
                return 2
            dims = [int(x) for x in arch_spec.split(",")]
            if len(dims) < 2:
                raise ValueError(f"--arch {arch_spec!r}: expected d,h1,...,K (at least d and K)")
            net = init_network(Arch(dims[0], tuple(dims[1:-1]), dims[-1]), seed)
            save_checkpoint(path, net)
            print(f"saved fresh network ({net.param_count()} params) to {path}")
    except (CheckpointError, OSError, ValueError) as e:
        print(f"checkpoint failed: {e}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="rec", description="Lifelong-learning benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the runs described by a config file")
    p_run.add_argument("config")
    p_rep = sub.add_parser("report", help="summarize a results directory")
    p_rep.add_argument("results_dir")
    p_ck = sub.add_parser("checkpoint", help="save or inspect a RECNET01 checkpoint")
    p_ck.add_argument("mode", choices=["save", "load"])
    p_ck.add_argument("path")
    p_ck.add_argument("--arch", default=None, help="dims for save, e.g. 64,40,40,10")
    p_ck.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "report":
        return cmd_report(args.results_dir)
    return cmd_checkpoint(args.mode, args.path, args.arch, args.seed)


if __name__ == "__main__":
    sys.exit(main())
