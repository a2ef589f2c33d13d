"""Command-line surface: `run <config>`, `report <dir>`, `checkpoint <save|load>`.

Config files are plain key=value lines (# comments). KEYS holds each key's
default and what it takes; `parse_config` parses each value once, and `rec
run` reads the typed values. Every emitted number is recomputable from the
persisted JSONL records; see docs/formats.md for all schemas.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Key:
    """A config key's default text and what it takes; free text unless set."""

    default: str
    min_int: int | None = None  # an integer, this or above
    in_range: tuple[Callable[[float], bool], str] | None = None  # a float: test, wording
    words: tuple[str, ...] = ()  # one of these words
    is_list: bool = False  # a comma-separated list of such values


_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v > 0, "> 0")
KEYS: dict[str, Key] = {
    "dataset": Key("synthetic"),  # else IDX path pairs, see _idx_pairs
    "task_kind": Key("permuted", words=("permuted", "rotated", "split")),
    "tasks": Key("5", min_int=1),
    "methods": Key("sn,ewc,mwc", words=tuple(METHODS), is_list=True),
    "seeds": Key("0,1,2", min_int=0, is_list=True),
    "hidden": Key("40,40", min_int=1, is_list=True),
    "side": Key("8", min_int=1),
    "classes": Key("10", min_int=1),
    "train_samples": Key("2000", min_int=1),
    "test_samples": Key("1000", min_int=1),
    "data_seed": Key("0", min_int=0),
    "lambda_ewc": Key("40", in_range=_NONNEGATIVE),
    "lambda_21": Key("3e-5", in_range=_NONNEGATIVE),
    "lambda_1": Key("1e-5", in_range=_NONNEGATIVE),
    "epsilon": Key("1e-8", in_range=(lambda v: 0 < v <= 1e-4, "in (0, 1e-4]")),
    "epochs": Key("8", min_int=1),
    "batch_size": Key("256", min_int=1),
    "lr": Key("0.03", in_range=_POSITIVE),
    "momentum": Key("0.0", in_range=(lambda v: 0 <= v < 1, "in [0, 1)")),
    "fisher_samples": Key("600", min_int=1),
    "search_budget": Key("6", min_int=1),
    "m_children": Key("3", min_int=1),
    "child_epochs": Key("2", min_int=1),
    "controller_lr": Key("0.05", in_range=_POSITIVE),
    "compress_epochs": Key("20", min_int=1),
    "compress_lr": Key("0.005", in_range=_POSITIVE),
    "reward_scope": Key("new-only", words=("new-only", "all-learned")),
    "out_dir": Key("results"),
}

# Files `rec run` writes into out_dir; it removes earlier ones before its first
# job, so the reports describe only the run that wrote them.
_OWNED_PATTERNS = ("results_*.jsonl", "search_*.jsonl", "final_*.recnet",
                   "summary.csv", "series.csv")


class ConfigError(ValueError):
    pass


class RunConfig(dict):
    def get_int(self, key: str) -> int:
        return self[key]

    def get_list(self, key: str) -> list:
        return list(self[key])


def parse_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {p}: {e}") from None
    given, key_line = {key: row.default for key, row in KEYS.items()}, {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{ln}: expected key=value, got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{p}:{ln}: unknown config key {key!r}")
        if key_line.setdefault(key, ln) != ln:
            raise ConfigError(f"{p}:{ln}: config key {key!r} already set on line {key_line[key]}")
        given[key] = val
    values = {key: _parse_value(key, val) for key, val in given.items()}
    for key in ("methods", "seeds"):
        if not values[key]:
            raise ConfigError(f"{key} is empty")
        repeated = [v for i, v in enumerate(values[key]) if v in values[key][:i]]
        if repeated:  # each (method, seed) pair is one job and names its files
            raise ConfigError(f"{key} = {given[key]!r}: {repeated[0]} is listed twice")
    expanding = [m for m in values["methods"] if METHODS[m][1]]
    if expanding and not values["hidden"]:
        raise ConfigError("hidden is empty, but expanding methods need a hidden layer: "
                          + ", ".join(expanding))
    if values["dataset"] != "synthetic":
        values["dataset"] = _idx_pairs(values["dataset"])
    elif values["task_kind"] == "split" and values["classes"] % values["tasks"]:
        raise ConfigError(f"split tasks need classes ({values['classes']}) divisible by "
                          f"tasks ({values['tasks']})")
    return RunConfig(values)


def _parse_value(key: str, text: str):
    """`text` as what KEYS[key] takes; a list key's value is a tuple."""
    row = KEYS[key]
    items = [v.strip() for v in text.split(",") if v.strip()] if row.is_list else [text]
    parsed = []
    for item in items:
        value = item  # free text or one of the words
        if row.min_int is not None:
            try:
                value = _number(int, item)
            except ValueError:
                raise ConfigError(f"{key} = {text!r}: {item!r} is not an integer") from None
            if value < row.min_int:
                raise ConfigError(f"{key} = {text!r}: must be >= {row.min_int}")
        elif row.in_range is not None:
            try:
                value = _number(float, item)
            except ValueError:
                raise ConfigError(f"{key} = {text!r}: not a number") from None
            if not (math.isfinite(value) and row.in_range[0](value)):
                raise ConfigError(f"{key} = {text!r}: must be finite and {row.in_range[1]}")
        elif row.words and item not in row.words:
            raise ConfigError(f"unknown {key} {item!r}; known: {', '.join(row.words)}")
        parsed.append(value)
    return tuple(parsed) if row.is_list else parsed[0]


def _number(kind: type, text: str):
    """kind(text), kind int or float, for an ASCII text without `_` (int()
    and float() alone also read `١` and `1_000`); else ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return kind(text)


def _idx_pairs(spec: str) -> tuple[tuple[str, str], ...]:
    """A non-synthetic `dataset` value as (images, labels) IDX path pairs:
    the training pair, then optionally the test pair."""
    parts = tuple(tuple(path.strip() for path in part.split(",")) for part in spec.split(";"))
    if len(parts) > 2 or any(len(p) != 2 or not all(p) for p in parts):
        raise ConfigError(f"dataset = {spec!r}: expected synthetic or "
                          "train_imgs,train_labels[;test_imgs,test_labels]")
    return parts


def _build_tasks(cfg: RunConfig):
    if cfg["dataset"] == "synthetic":
        train, test = synthetic_classes(cfg["train_samples"], cfg["test_samples"],
                                        cfg["side"], cfg["classes"],
                                        subseed(cfg["data_seed"], "data"))
    else:
        pairs = cfg["dataset"]
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
    tasks = gen(train, test, cfg["tasks"], cfg["data_seed"])
    searching = ", ".join(m for m in cfg["methods"] if _method_cfg(cfg, m).searches)
    for t, task in enumerate(tasks, 1):
        rows = {"train": len(task.train), "validation": len(task.val), "test": len(task.test)}
        for split, needed in (("train", True), ("test", True), ("validation", bool(searching))):
            if needed and rows[split] == 0:
                why = f", which the search of {searching} scores on" if split == "validation" else ""
                raise ValueError(f"task {t} has an empty {split} split{why}: "
                                 + ", ".join(f"{n} {s}" for s, n in rows.items()) + " rows")
    return tasks


def _method_cfg(cfg: RunConfig, method: str):
    penalty = PenaltyConfig(cfg["lambda_ewc"], cfg["lambda_21"], cfg["lambda_1"], cfg["epsilon"])
    search = SearchConfig(budget=cfg["search_budget"], m_children=cfg["m_children"],
                          child_epochs=cfg["child_epochs"],
                          controller_lr=cfg["controller_lr"])
    return method_config(
        method, penalty,
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], lr=cfg["lr"],
        momentum=cfg["momentum"], fisher_samples=cfg["fisher_samples"], search=search,
        compress_cfg=CompressConfig(epochs=cfg["compress_epochs"], lr=cfg["compress_lr"]),
        reward_scope=cfg["reward_scope"],
    )


def _run_one(cfg: RunConfig, tasks, method: str, seed: int, out: Path) -> None:
    result = run_sequence(tasks, _method_cfg(cfg, method), seed, cfg["hidden"])
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
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for pattern in _OWNED_PATTERNS:
        for stale in out.glob(pattern):
            stale.unlink()
    tasks = _build_tasks(cfg)
    jobs = [(m, s) for m in cfg["methods"] for s in cfg["seeds"]]
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
    return 1 if failed else 0


# The fields the report reads from every results record, with their JSON types.
_RECORD_TYPES = {"method": str, "seed": int, "task": int, "param_count": int,
                 "accuracies": list}


def _record(line: bytes) -> dict:
    """One results_*.jsonl line as a record holding the fields the report
    reads; ValueError says what is wrong."""
    try:
        rec = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ValueError(f"not UTF-8: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"not JSON: {e}") from None
    except RecursionError as e:
        raise ValueError(f"nested too deeply: {e}") from None
    if not isinstance(rec, dict):
        raise ValueError(f"a record is a JSON object, not {type(rec).__name__}")
    for key, kind in _RECORD_TYPES.items():
        if key not in rec:
            raise ValueError(f"no {key!r}")
        if type(rec[key]) is not kind:
            raise ValueError(f"{key!r} must be {kind.__name__}, not {type(rec[key]).__name__}")
    if not rec["accuracies"] or any(type(a) not in (int, float) for a in rec["accuracies"]):
        raise ValueError("'accuracies' must be a non-empty list of numbers")
    if not all(0 <= a <= 1 for a in rec["accuracies"]):  # NaN fails too
        raise ValueError("'accuracies' must be fractions in [0, 1]")
    if rec["task"] < 1:
        raise ValueError(f"'task' must be >= 1, not {rec['task']}")
    if rec["param_count"] < 0:
        raise ValueError(f"'param_count' must be >= 0, not {rec['param_count']}")
    if len(rec["accuracies"]) != rec["task"]:
        raise ValueError(f"task {rec['task']} must hold {rec['task']} accuracies, "
                         f"one per learned task, not {len(rec['accuracies'])}")
    return rec


def _load_records(results_dir: Path) -> list[dict]:
    """Every record of the directory's results_*.jsonl files; a malformed one,
    a second one for the same (method, seed, task), or one whose run has no
    record for an earlier task raises ValueError naming its file and line."""
    records: dict[tuple[str, int, int], dict] = {}
    where: dict[tuple[str, int, int], str] = {}  # key -> "file:line"
    for path in sorted(results_dir.glob("results_*.jsonl")):
        for n, line in enumerate(path.read_bytes().splitlines(), 1):
            if line.strip():
                try:
                    rec = _record(line)
                    key = rec["method"], rec["seed"], rec["task"]
                    if key in records:
                        raise ValueError("a second record for method {!r}, seed {}, task {}"
                                         .format(*key))
                except ValueError as e:
                    raise ValueError(f"{path}:{n}: {e}") from None
                records[key], where[key] = rec, f"{path}:{n}"
    if not records:
        raise ValueError(f"no results_*.jsonl records under {results_dir}")
    for method, seed, task in sorted(records):  # each run's tasks must be 1..T
        if task > 1 and (method, seed, task - 1) not in records:
            raise ValueError(f"{where[method, seed, task]}: method {method!r}, seed {seed} "
                             f"has task {task} but no task {task - 1}")
    return list(records.values())


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
    print("\n".join(_write_reports(Path(results_dir))))
    return 0


def cmd_checkpoint(mode: str, path: str, arch_spec: str | None, seed: int) -> int:
    try:
        if mode == "load":
            net, anchor, fisher = load_checkpoint(path)
            lines = [f"arch: {'-'.join(map(str, net.arch.widths))}",
                     f"params: {net.param_count()}",
                     f"anchor: {'yes' if anchor is not None else 'no'}",
                     f"fisher: {'yes' if fisher is not None else 'no'}"]
        else:
            if not arch_spec:
                print("error: checkpoint save requires --arch d,h1,...,K", file=sys.stderr)
                return 2
            try:
                dims = [int(x) for x in arch_spec.split(",")]
                if len(dims) < 2:
                    raise ValueError("expected d,h1,...,K (at least d and K)")
                arch = Arch(dims[0], tuple(dims[1:-1]), dims[-1])
            except ValueError as e:
                raise ValueError(f"--arch {arch_spec!r}: {e}") from None
            if seed < 0:
                raise ValueError(f"--seed {seed}: must be >= 0")
            net = init_network(arch, seed)
            save_checkpoint(path, net)
            lines = [f"saved fresh network ({net.param_count()} params) to {path}"]
    except (CheckpointError, OSError, ValueError) as e:
        print(f"checkpoint failed: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))  # outside the try: a closed stdout is main's to handle
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="rec", description="Lifelong-learning benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the runs described by a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=lambda a: cmd_run(a.config))
    p_rep = sub.add_parser("report", help="summarize a results directory")
    p_rep.add_argument("results_dir")
    p_rep.set_defaults(func=lambda a: cmd_report(a.results_dir))
    p_ck = sub.add_parser("checkpoint", help="save or inspect a RECNET01 checkpoint")
    p_ck.add_argument("mode", choices=["save", "load"])
    p_ck.add_argument("path")
    p_ck.add_argument("--arch", default=None, help="dims for save, e.g. 64,40,40,10")
    p_ck.add_argument("--seed", type=int, default=0)
    p_ck.set_defaults(func=lambda a: cmd_checkpoint(a.mode, a.path, a.arch, a.seed))
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:  # e.g. `rec report DIR | head -1`; devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as e:  # noqa: BLE001 - one stderr line, not a traceback
        print(f"{args.command} failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
