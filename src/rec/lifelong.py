"""Task-sequence generation and the full lifelong loop across methods. A run's
result is its per-task records: after task t, the accuracies on tasks 1..t
(row t of the accuracy matrix), their mean and the model size.

A sequence keeps one source copy of its training and one of its test inputs.
A task's train, val and test splits are Datasets whose inputs are views over
them (data.RowView), built once by its generator: permuted and rotated tasks
share one row split and differ by a column map; split tasks own disjoint
class rows. Every task kind sizes its output from the largest label of the
training and test data together. Training gathers inputs a minibatch at a
time; the Fisher estimate, soft targets and scoring (the expansion search's
too, one validation view after another) a 512-row chunk at a time.

A method is its row of METHODS (the lambdas it zeroes, expansion, compression);
`run_sequence` reads only the MethodConfig built from it, never the name."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .controller import SearchConfig, init_policy, search_child
from .data import Dataset, RowView, split_train_val
from .distill import CompressConfig, compress
from .netcore import Arch, DenseNet, evaluate, init_network, loss_ce
from .regularize import (PenaltyConfig, TrainingDiverged, consolidation, estimate_fisher,
                         train_task)
from .transform import WiderAction, action_to_line, apply_actions

# name -> (PenaltyConfig lambdas set to 0, expansion, compression)
METHODS: dict[str, tuple[tuple[str, ...], bool, bool]] = {
    "sn": (("lambda_ewc", "lambda_21", "lambda_1"), False, False),
    "ewc": (("lambda_21", "lambda_1"), False, False),
    "ewc_l1": (("lambda_21",), False, False),
    "ewc_l21": (("lambda_1",), False, False),
    "mwc": ((), False, False),
    "net2net": (("lambda_ewc", "lambda_21", "lambda_1"), True, False),
    "net2net_ewc": (("lambda_21", "lambda_1"), True, False),
    "rec": ((), True, True),
}
VAL_RATIO = 0.1  # share of each task's training split held out for validation


def subseed(seed: int, name: str, t: int = 0) -> int:
    """Stable named sub-seed so every randomness source is auditable."""
    return (seed * 1000003 + zlib.crc32(f"{name}:{t}".encode())) % (2 ** 31)


@dataclass
class Task:
    """A task's three splits, each a view over the sequence's source copy."""

    train: Dataset
    val: Dataset
    test: Dataset
    num_classes: int


def _class_count(train_ds: Dataset, test_ds: Dataset) -> int:
    """Output width of every task kind: one past the largest label of either split."""
    return int(max(train_ds.labels.max(), test_ds.labels.max())) + 1


def _mapped_tasks(train_ds: Dataset, test_ds: Dataset, seed: int,
                  maps: list[np.ndarray | None]) -> list[Task]:
    """One task per column map over the same train/val/test rows; input j
    reads source column cols[j], 0.0 where -1 (None: identity)."""
    n_classes = _class_count(train_ds, test_ds)
    tr, va = split_train_val(train_ds, VAL_RATIO, subseed(seed, "valsplit"))
    parts = [(ds.inputs, ds.labels) for ds in (tr, va, test_ds)]
    if any(v.cols is not None for v, _ in parts):
        raise ValueError("task generators read source rows, not column-mapped views")
    return [Task(*(Dataset(RowView(v.source, v.rows, cols), y) for v, y in parts), n_classes)
            for cols in maps]


def gen_permuted_tasks(train_ds: Dataset, test_ds: Dataset, num_tasks: int,
                       seed: int) -> list[Task]:
    """Task 1 is the identity; later tasks apply an independent fixed pixel
    permutation to every split."""
    if num_tasks < 1:
        raise ValueError("need at least one task")
    rng = np.random.default_rng(subseed(seed, "perm"))
    d = train_ds.input_dim
    return _mapped_tasks(train_ds, test_ds, seed,
                         [None] + [rng.permutation(d) for _ in range(num_tasks - 1)])


def rotation_columns(d: int, angle_deg: float) -> np.ndarray:
    """Column map of a nearest-neighbor rotation of square images with d
    pixels about their center: pixel j reads source pixel cols[j], or -1
    (zero fill) where that falls outside the image."""
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
    return np.where(inside, sr * side + sc, -1).ravel()


def gen_rotated_tasks(train_ds: Dataset, test_ds: Dataset, num_tasks: int,
                      seed: int) -> list[Task]:
    """Task t rotates every image by (t-1) * 180/T degrees."""
    if num_tasks < 1:
        raise ValueError("need at least one task")
    return _mapped_tasks(train_ds, test_ds, seed,
                         [None] + [rotation_columns(train_ds.input_dim, t * 180.0 / num_tasks)
                                   for t in range(1, num_tasks)])


def gen_split_tasks(train_ds: Dataset, test_ds: Dataset, num_tasks: int,
                    seed: int) -> list[Task]:
    """Contiguous class blocks per task, labels remapped to 0..K_t-1."""
    if num_tasks < 1:
        raise ValueError("need at least one task")
    n_classes = _class_count(train_ds, test_ds)
    if n_classes % num_tasks != 0:
        raise ValueError(f"{n_classes} classes not divisible into {num_tasks} tasks")
    per = n_classes // num_tasks
    tasks = []
    for t in range(num_tasks):
        lo = t * per
        classes = np.arange(lo, lo + per)

        def take(ds: Dataset) -> Dataset:
            rows = ds.subset(np.flatnonzero(np.isin(ds.labels, classes)))
            return Dataset(rows.inputs, rows.labels - lo)

        tr, va = split_train_val(take(train_ds), VAL_RATIO, subseed(seed, "valsplit", t))
        tasks.append(Task(tr, va, take(test_ds), per))
    return tasks


@dataclass(frozen=True)
class MethodConfig:
    penalty: PenaltyConfig = PenaltyConfig()
    expansion: bool = False
    compression: bool = False
    reward_scope: str = "new-only"  # or "all-learned"
    epochs: int = 8
    batch_size: int = 256
    lr: float = 0.03
    momentum: float = 0.0
    fisher_samples: int = 600
    search: SearchConfig = SearchConfig()
    compress_cfg: CompressConfig = CompressConfig()

    def __post_init__(self):
        if self.reward_scope not in ("new-only", "all-learned"):
            raise ValueError(f"bad reward scope {self.reward_scope!r}")

    @property
    def searches(self) -> bool:
        """A method that expands and compresses searches its child on validation rows."""
        return self.expansion and self.compression


def method_config(method: str, penalty: PenaltyConfig, **kw) -> MethodConfig:
    """The named method's METHODS row applied to `penalty`; `kw` sets the rest."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    zeroed, expansion, compression = METHODS[method]
    return MethodConfig(penalty=replace(penalty, **dict.fromkeys(zeroed, 0.0)),
                        expansion=expansion, compression=compression, **kw)


@dataclass
class RunResult:
    records: list[dict]
    search_log: list[dict]
    final_net: DenseNet


def run_sequence(tasks: list[Task], method: MethodConfig, seed: int,
                 hidden_widths: tuple[int, ...] = (40, 40)) -> RunResult:
    """Algorithm-1 orchestration of one (method, seed) run.

    Every task is the same three steps, switched by the method's config: make
    its net with apply_actions (a searched child if the method expands and
    compresses, a capped widening of the first hidden layer if it only
    expands, else a copy of the carried net), train it on CE plus the
    consolidation penalty (anchored only when some lambda is positive), and
    optionally distill it into a copy of the carried net. Every task, split
    tasks too, trains and is scored through the net's one output layer. Task
    inputs are views, resident a minibatch or a 512-row chunk at a time. The
    first net is in the dtype of the first task's source inputs, and every
    later net, anchor and Fisher keeps it. A TrainingDiverged from a task's
    search, fit or distillation is raised again with the task's number.
    """
    first = tasks[0]
    initial_arch = Arch(first.train.input_dim, hidden_widths, first.num_classes)
    net = init_network(initial_arch, subseed(seed, "init"), first.train.inputs.source.dtype)
    p = method.penalty
    penalized = max(p.lambda_ewc, p.lambda_21, p.lambda_1) > 0

    anchor: np.ndarray | None = None  # previous task's parameters
    fisher: np.ndarray | None = None  # their Fisher diagonal
    policy = init_policy(subseed(seed, "controller"))  # searched expansion only
    baseline: float | None = None  # reward moving average of the search

    records: list[dict] = []
    search_log: list[dict] = []

    for t, task in enumerate(tasks):
        extra: dict = {}

        def fit(model: DenseNet, model_ref: np.ndarray, epochs: int, fit_seed: int) -> DenseNet:
            """The task's one training recipe (CE, its consolidation penalty and
            the method's SGD settings), for its own net and every child."""
            penalty = consolidation(anchor, fisher, method.penalty, model_ref)
            return train_task(model, task.train, loss_ce, penalty, epochs, method.batch_size,
                              method.lr, fit_seed, method.momentum)

        try:  # a divergence names the task it ends
            if t > 0 and method.searches:
                scored = tasks[:t + 1] if method.reward_scope == "all-learned" else [task]
                result, baseline = search_child(net, fit, [tk.val for tk in scored],
                                                policy, baseline, subseed(seed, "search", t),
                                                method.search)
                search_log.extend({"task": t + 1, **rec} for rec in result.log)
                child, ref, actions = result.net, result.ref, result.actions
            else:
                actions = []  # none: apply_actions returns a copy of the carried net
                if t > 0 and method.expansion:
                    w = net.arch.hidden_widths[0]
                    cap = method.search.width_cap_factor * initial_arch.hidden_widths[0]
                    actions = [WiderAction(0, min(2 * w, cap))]
                child, ref = apply_actions(net, actions, subseed(seed, "expand", t))

            fit(child, ref, method.epochs, subseed(seed, "train", t))
            distills = t > 0 and method.compression
            net = (compress(child, net, task.train, method.compress_cfg, method.batch_size,
                            subseed(seed, "distill", t)) if distills else child)
        except TrainingDiverged as e:
            raise TrainingDiverged(f"task {t + 1}: {e}") from None
        if t > 0 and method.expansion:
            extra["actions"] = [action_to_line(a) for a in actions]

        row = [evaluate(net, tk.test.inputs, tk.test.labels) for tk in tasks[:t + 1]]
        if distills:  # the student is the carried net, scored once in row
            extra.update({
                "child_param_count": child.param_count(),
                "child_new_task_acc": evaluate(child, task.test.inputs, task.test.labels),
                "student_new_task_acc": row[t],
            })

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
            anchor = net.get_flat()

    return RunResult(records, search_log, net)

