"""Correctness checks on the files one benchmark pass left in its out_dir.

`check_pass` reads the JSONL records, the final checkpoints and the two CSV
reports that `rec run` writes, and returns the quality numbers the benchmark
reports together with a list of every check that failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

FIXED_SIZE_METHODS = ("sn", "ewc", "ewc_l1", "ewc_l21", "mwc", "rec")
WIDENING_METHODS = ("net2net", "net2net_ewc")
REPORTS = ("summary.csv", "series.csv")


@dataclass
class PassOutputs:
    digests: dict[str, str] = field(default_factory=dict)  # report file -> sha256
    acc_final: dict[str, float] = field(default_factory=dict)   # job -> final avg acc
    forgetting_task1: dict[str, float] = field(default_factory=dict)
    student_gaps: list[float] = field(default_factory=list)  # rec: child - student acc
    problems: list[str] = field(default_factory=list)

    def absorb(self, other: PassOutputs, prefix: str) -> None:
        """Add the outputs of another out_dir, its keys and problems prefixed."""
        self.digests.update({prefix + k: v for k, v in other.digests.items()})
        self.acc_final.update({prefix + k: v for k, v in other.acc_final.items()})
        self.forgetting_task1.update(
            {prefix + k: v for k, v in other.forgetting_task1.items()})
        self.student_gaps += other.student_gaps
        self.problems += [prefix + p for p in other.problems]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _is_fraction(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0


def check_pass(out: Path, jobs: list[tuple[str, int]], num_tasks: int,
               hidden: tuple[int, ...], width_cap_factor: int,
               load_checkpoint) -> PassOutputs:
    """Check every completed job in `jobs` and the reports built from them."""
    res = PassOutputs()
    bad = res.problems.append
    for method, seed in jobs:
        job = f"{method}_s{seed}"
        try:
            _check_job(res, out, method, job, num_tasks, hidden, width_cap_factor,
                       load_checkpoint)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as e:
            bad(f"{job}: unreadable output: {type(e).__name__}: {e}")

    for name in REPORTS:
        path = out / name
        if path.is_file():
            res.digests[name] = sha256(path)
        elif jobs:
            bad(f"missing report {name}")
    if jobs and "summary.csv" in res.digests:
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        listed = {}
        for row in rows:
            method, seed, _, _, acc = row.split(",")
            listed[f"{method}_s{seed}"] = float(acc)
        if set(listed) != set(res.acc_final):
            bad(f"summary.csv lists {sorted(listed)}, completed {sorted(res.acc_final)}")
        for job, acc in listed.items():
            if job in res.acc_final and abs(acc - res.acc_final[job]) > 1e-6:
                bad(f"summary.csv acc_final {acc} for {job} != records {res.acc_final[job]}")
    return res


def _check_job(res: PassOutputs, out: Path, method: str, job: str, num_tasks: int,
               hidden: tuple[int, ...], width_cap_factor: int, load_checkpoint) -> None:
    bad = res.problems.append
    path = out / f"results_{job}.jsonl"
    recs = sorted((json.loads(line) for line in path.read_text().splitlines()
                   if line.strip()), key=lambda r: r["task"])
    if [r["task"] for r in recs] != list(range(1, num_tasks + 1)):
        bad(f"{job}: tasks {[r['task'] for r in recs]}, expected 1..{num_tasks}")
        return
    for r in recs:
        accs = list(r["accuracies"]) + [r[k] for k in
                                        ("child_new_task_acc", "student_new_task_acc")
                                        if k in r]
        if len(r["accuracies"]) != r["task"] or not all(map(_is_fraction, accs)):
            bad(f"{job} task {r['task']}: accuracies not in [0,1]: {accs}")
        if "child_new_task_acc" in r:
            res.student_gaps.append(r["child_new_task_acc"] - r["student_new_task_acc"])
    first, final = recs[0], recs[-1]
    res.acc_final[job] = sum(final["accuracies"]) / len(final["accuracies"])
    res.forgetting_task1[job] = first["accuracies"][0] - final["accuracies"][0]

    if method in FIXED_SIZE_METHODS and final["param_count"] != first["param_count"]:
        bad(f"{job}: ends with {final['param_count']} params, "
            f"task 1 had {first['param_count']}")
    net, _, _ = load_checkpoint(out / f"final_{job}.recnet")
    if net.param_count() != final["param_count"]:
        bad(f"{job}: checkpoint has {net.param_count()} params, "
            f"record says {final['param_count']}")
    if method in WIDENING_METHODS:
        widths = net.arch.hidden_widths
        caps = tuple(width_cap_factor * w for w in hidden)
        if len(widths) != len(caps) or any(w > c for w, c in zip(widths, caps)):
            bad(f"{job}: hidden widths {widths} exceed the cap {caps}")

    search = out / f"search_{job}.jsonl"
    if search.is_file():
        for line in search.read_text().splitlines():
            a_val = json.loads(line)["a_val"]
            if not _is_fraction(a_val):
                bad(f"{job}: search child a_val {a_val} not in [0,1]")
