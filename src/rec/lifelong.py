"""Task-sequence generation, the full lifelong loop across methods, and the
reported metrics (accuracy matrix, per-task averages, forgetting curves)."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .controller import BaselineState, SearchConfig, init_policy, search_child
from .data import Dataset, split_train_val
from .distill import CompressConfig, compress
from .netcore import Arch, DenseNet, Layer, evaluate, init_network
from .regularize import (Anchor, FisherDiag, PenaltyConfig, consolidation, estimate_fisher,
                         train_task)
from .transform import WiderAction, action_to_line, apply_actions

PERMUTED = "permuted"
ROTATED = "rotated"
SPLIT = "split"

METHOD_NAMES = ("sn", "ewc", "ewc_l1", "ewc_l21", "mwc", "net2net", "net2net_ewc", "rec")
VAL_RATIO = 0.1  # share of each task's training split held out for validation


def subseed(seed: int, name: str, t: int = 0) -> int:
    """Stable named sub-seed so every randomness source is auditable."""
    return (seed * 1000003 + zlib.crc32(f"{name}:{t}".encode())) % (2 ** 31)


@dataclass
class Task:
    train: Dataset
    val: Dataset
    test: Dataset
    kind: str
    num_classes: int
    transform_spec: dict = field(default_factory=dict)


@dataclass
class TaskSequence:
    tasks: list[Task]
    kind: str
    seed: int

    def __len__(self) -> int:
        return len(self.tasks)


def _transformed_tasks(train_ds: Dataset, test_ds: Dataset, kind: str, seed: int,
                       transforms: list[tuple]) -> TaskSequence:
    """One task per (input map, spec) pair: the map applied to every split."""
    n_classes = int(train_ds.labels.max()) + 1
    tr, va = split_train_val(train_ds, VAL_RATIO, subseed(seed, "valsplit"))
    return TaskSequence([Task(tr.map_inputs(fn), va.map_inputs(fn), test_ds.map_inputs(fn),
                              kind, n_classes, spec) for fn, spec in transforms], kind, seed)


def gen_permuted_tasks(train_ds: Dataset, test_ds: Dataset, num_tasks: int,
                       seed: int) -> TaskSequence:
    """Task 1 is the identity; later tasks apply an independent fixed pixel
    permutation to every split."""
    if num_tasks < 1:
        raise ValueError("need at least one task")
    rng = np.random.default_rng(subseed(seed, "perm"))
    d = train_ds.input_dim
    perms = [np.arange(d) if t == 0 else rng.permutation(d) for t in range(num_tasks)]
    return _transformed_tasks(train_ds, test_ds, PERMUTED, seed,
                              [(lambda x, p=p: x[:, p], {"permutation": p.tolist()})
                               for p in perms])


def rotate_images(inputs: np.ndarray, angle_deg: float) -> np.ndarray:
    """Nearest-neighbor rotation about the image center, zero fill outside."""
    n, d = inputs.shape
    side = int(round(np.sqrt(d)))
    if side * side != d:
        raise ValueError(f"inputs of dim {d} are not square images")
    theta = np.deg2rad(angle_deg)
    c = (side - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    # Inverse mapping: sample the source pixel that lands on (rr, cc).
    src_r = np.cos(theta) * (rr - c) + np.sin(theta) * (cc - c) + c
    src_c = -np.sin(theta) * (rr - c) + np.cos(theta) * (cc - c) + c
    sr = np.rint(src_r).astype(int)
    sc = np.rint(src_c).astype(int)
    inside = (sr >= 0) & (sr < side) & (sc >= 0) & (sc < side)
    flat_src = np.clip(sr, 0, side - 1) * side + np.clip(sc, 0, side - 1)
    out = inputs[:, flat_src.ravel()]
    out[:, ~inside.ravel()] = 0.0
    return out


def gen_rotated_tasks(train_ds: Dataset, test_ds: Dataset, num_tasks: int,
                      seed: int) -> TaskSequence:
    """Task t rotates every image by (t-1) * 180/T degrees."""
    if num_tasks < 1:
        raise ValueError("need at least one task")
    angles = [t * 180.0 / num_tasks for t in range(num_tasks)]
    return _transformed_tasks(train_ds, test_ds, ROTATED, seed,
                              [(lambda x, a=a: x if a == 0 else rotate_images(x, a),
                                {"angle_deg": a}) for a in angles])


def gen_split_tasks(train_ds: Dataset, test_ds: Dataset, num_tasks: int,
                    seed: int) -> TaskSequence:
    """Contiguous class blocks per task, labels remapped to 0..K_t-1."""
    n_classes = int(max(train_ds.labels.max(), test_ds.labels.max())) + 1
    if n_classes % num_tasks != 0:
        raise ValueError(f"{n_classes} classes not divisible into {num_tasks} tasks")
    per = n_classes // num_tasks
    tasks = []
    for t in range(num_tasks):
        lo = t * per
        classes = np.arange(lo, lo + per)

        def take(ds: Dataset) -> Dataset:
            sel = np.isin(ds.labels, classes)
            return Dataset(ds.inputs[sel].copy(), ds.labels[sel] - lo)

        tr, va = split_train_val(take(train_ds), VAL_RATIO, subseed(seed, "valsplit", t))
        tasks.append(Task(train=tr, val=va, test=take(test_ds), kind=SPLIT,
                          num_classes=per, transform_spec={"classes": classes.tolist()}))
    return TaskSequence(tasks, SPLIT, seed)


@dataclass
class AccuracyMatrix:
    rows: list[list[float]] = field(default_factory=list)

    def add_row(self, accuracies: list[float]) -> None:
        if len(accuracies) != len(self.rows) + 1:
            raise ValueError("row t must have exactly t entries")
        self.rows.append([float(a) for a in accuracies])

    def acc(self, t: int, k: int) -> float:
        """acc on task k after finishing task t; both 1-indexed."""
        return self.rows[t - 1][k - 1]

    def avg_per_task(self, t: int) -> float:
        if not (1 <= t <= len(self.rows)):
            raise ValueError(f"task index {t} out of range")
        return float(np.mean(self.rows[t - 1]))

    def forgetting_curve(self, k: int = 1) -> list[float]:
        if k > len(self.rows):
            raise ValueError(f"task {k} was never learned")
        return [row[k - 1] for row in self.rows[k - 1:]]


@dataclass(frozen=True)
class MethodConfig:
    method: str
    penalty: PenaltyConfig = PenaltyConfig()
    expansion: bool = False
    compression: bool = False
    reward_scope: str = "new-only"  # or "all-learned"
    epochs: int = 8
    batch_size: int = 256
    lr: float = 0.001
    momentum: float = 0.0
    fisher_samples: int = 600
    search_budget: int = 10
    search: SearchConfig = SearchConfig()
    compress_cfg: CompressConfig = CompressConfig()

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "rec" and not (self.expansion and self.compression):
            raise ValueError("rec requires expansion and compression")
        if self.method in ("sn", "ewc", "ewc_l1", "ewc_l21", "mwc") and self.expansion:
            raise ValueError(f"{self.method} is a fixed-architecture method")
        if self.reward_scope not in ("new-only", "all-learned"):
            raise ValueError(f"bad reward scope {self.reward_scope!r}")


def method_config(method: str, penalty: PenaltyConfig, **kw) -> MethodConfig:
    """Per-method penalty wiring: which lambdas are active."""
    zeroed = {
        "sn": dict(lambda_ewc=0.0, lambda_21=0.0, lambda_1=0.0),
        "ewc": dict(lambda_21=0.0, lambda_1=0.0),
        "ewc_l1": dict(lambda_21=0.0),
        "ewc_l21": dict(lambda_1=0.0),
        "mwc": {},
        "net2net": dict(lambda_ewc=0.0, lambda_21=0.0, lambda_1=0.0),
        "net2net_ewc": dict(lambda_21=0.0, lambda_1=0.0),
        "rec": {},
    }[method]
    flags = {
        "net2net": dict(expansion=True),
        "net2net_ewc": dict(expansion=True),
        "rec": dict(expansion=True, compression=True),
    }.get(method, {})
    return MethodConfig(method=method, penalty=replace(penalty, **zeroed), **flags, **kw)


@dataclass
class RunResult:
    acc: AccuracyMatrix
    size_trace: list[int]
    records: list[dict]
    search_log: list[dict]
    final_net: DenseNet


def _attach_head(hidden_net: DenseNet, num_classes: int, seed: int) -> DenseNet:
    """Fresh output head on carried hidden layers (split-task protocol)."""
    arch = Arch(hidden_net.arch.input_dim, hidden_net.arch.hidden_widths, num_classes)
    fresh = init_network(arch, seed)
    head_start = arch.layer_slices()[-1][0].start
    fresh.params[:head_start] = hidden_net.params[:head_start]
    return fresh


def _with_head(hidden_net: DenseNet, head: Layer) -> DenseNet:
    arch = Arch(hidden_net.arch.input_dim, hidden_net.arch.hidden_widths, head.bias.size)
    return DenseNet(arch, hidden_net.layers[:-1] + [head])


def run_sequence(tasks: TaskSequence, method: MethodConfig, seed: int,
                 hidden_widths: tuple[int, ...] = (40, 40)) -> RunResult:
    """Algorithm-1 orchestration of one (method, seed) run.

    Every task is the same three steps, switched by the method's config:
    optionally expand the carried net (searched children when the method
    compresses, else a capped widening of the first hidden layer), train it
    on the consolidation objective (an anchor exists only when some lambda is
    positive), and optionally distill it back to the initial architecture.
    """
    split_mode = tasks.kind == SPLIT
    first = tasks.tasks[0]
    initial_arch = Arch(first.train.input_dim, hidden_widths, first.num_classes)
    net = init_network(initial_arch, subseed(seed, "init"))
    p = method.penalty
    penalized = max(p.lambda_ewc, p.lambda_21, p.lambda_1) > 0

    anchor: Anchor | None = None
    fisher: FisherDiag | None = None
    policy = init_policy(subseed(seed, "controller"))  # searched expansion only
    baseline = BaselineState()
    heads: list[Layer] = []  # per-task output layers, read in split mode

    acc = AccuracyMatrix()
    size_trace: list[int] = []
    records: list[dict] = []
    search_log: list[dict] = []

    for t, task in enumerate(tasks.tasks):
        extra: dict = {}
        ref = None  # identity: every coordinate holds its anchor value
        if t > 0 and split_mode:
            net = _attach_head(net, task.num_classes, subseed(seed, "head", t))
            ref = np.arange(net.param_count())
            ref[net.arch.layer_slices()[-1][0].start:] = -1  # the replaced output head
        child, actions = net, []
        if t > 0 and method.expansion and method.compression:
            val_sets = ([tk.val for tk in tasks.tasks[:t + 1]]
                        if method.reward_scope == "all-learned" else [task.val])
            result, baseline = search_child(
                net, task.train, val_sets, anchor, fisher, method.penalty,
                method.search_budget, policy, baseline,
                subseed(seed, "search", t), method.search, ref)
            search_log.extend({"task": t + 1, **rec} for rec in result.log)
            child, ref, actions = result.net, result.ref, result.actions
        elif t > 0 and method.expansion:
            w = net.arch.hidden_widths[0]
            cap = method.search.width_cap_factor * initial_arch.hidden_widths[0]
            actions = [WiderAction(0, min(2 * w, cap))]
            child, ref, _ = apply_actions(net, actions, subseed(seed, "expand", t), ref)

        objective = consolidation(anchor, fisher, method.penalty, ref)
        train_task(child, task.train, objective, method.epochs, method.batch_size,
                   method.lr, subseed(seed, "train", t), method.momentum)
        if t > 0 and method.expansion:
            extra["actions"] = [action_to_line(a) for a in actions]
        if t > 0 and method.compression:
            target_arch = Arch(initial_arch.input_dim, hidden_widths, task.num_classes)
            warm = net if net.arch == target_arch else None
            net = compress(child, target_arch, task.train, method.compress_cfg,
                           subseed(seed, "distill", t), init_net=warm)
            extra.update({
                "child_param_count": child.param_count(),
                "child_new_task_acc": evaluate(child, task.test.inputs, task.test.labels),
                "student_new_task_acc": evaluate(net, task.test.inputs, task.test.labels),
            })
        else:
            net = child

        heads.append(net.layers[-1].copy())
        row = []
        for k in range(t + 1):
            tk = tasks.tasks[k]
            model = _with_head(net, heads[k]) if split_mode else net
            row.append(evaluate(model, tk.test.inputs, tk.test.labels))
        acc.add_row(row)
        size_trace.append(net.param_count())

        records.append({
            "task": t + 1,
            "accuracies": row,
            "avg_per_task": float(np.mean(row)),
            "param_count": net.param_count(),
            **extra,
        })

        if penalized and t + 1 < len(tasks):  # the last task anchors nothing
            fisher = estimate_fisher(net, task.train, method.fisher_samples,
                                     subseed(seed, "fisher", t))
            anchor = Anchor(net.get_flat())

    return RunResult(acc, size_trace, records, search_log, net)


def ablation_suite(tasks: TaskSequence, seeds: list[int], penalty: PenaltyConfig,
                   hidden_widths: tuple[int, ...] = (40, 40),
                   **run_kw) -> dict[str, float]:
    """Table of mean final average-per-task accuracy for the penalty variants."""
    if len(seeds) < 3:
        raise ValueError("ablation requires at least 3 seeds")
    out: dict[str, float] = {}
    for variant in ("ewc", "ewc_l1", "ewc_l21", "mwc"):
        cfg = method_config(variant, penalty, **run_kw)
        finals = []
        for s in seeds:
            res = run_sequence(tasks, cfg, s, hidden_widths)
            finals.append(res.acc.avg_per_task(len(tasks)))
        out[variant] = float(np.mean(finals))
    return out
