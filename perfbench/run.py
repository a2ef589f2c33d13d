"""Benchmark of the `rec run` pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload grid-default --seed 0 --seconds 36 --trace 0

Run from the root of a checkout. The workload seed sets the data seeds and the
job seeds. Each pass drives the `rec run` path step by step in this process
(parse_config, task generation, one job per (method, seed), JSONL records,
checkpoints, CSV reports) into a fresh out_dir per data set, so one failing
job does not hide the others. Passes repeat the same inputs until --seconds
is used up; at least one pass always runs.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Outputs are kept
under .perfbench_out/ in the checkout; README.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from checks import PassOutputs, check_pass
from layers import HOOKS, UNITS, pass_metrics
from spans import Tracer, install
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # set-up probes before the first pass and after each pass

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "acc_final_mean": "fraction", "completed_job_share": "fraction"}


def import_rec():
    if not (SRC / "rec" / "__init__.py").is_file():
        raise SystemExit(f"error: no rec package under {SRC}; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from rec import cli
    return cli


def span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def setup(cli, workload: str, seed: int, run_dir: Path, tracer=None) -> list:
    """Config file -> parse_config -> tasks, what `rec run` does before its
    jobs, for each data set of the workload. Returns [(cfg, tasks)]."""
    sets = []
    for data_seed in WORKLOADS[workload].data_seeds(seed):
        cfg_path = run_dir / f"data{data_seed}.cfg"
        cfg_path.write_text(WORKLOADS[workload].config_text(data_seed, str(run_dir)))
        cfg = cli.parse_config(cfg_path)
        with span(tracer, "cli._build_tasks"):
            sets.append((cfg, cli._build_tasks(cfg)))
    return sets


def jobs_of(cfg) -> list[tuple[str, int]]:
    return [(m, int(s)) for m in cfg.get_list("methods") for s in cfg.get_list("seeds")]


def set_dir(out: Path, cfg) -> Path:
    return out / f"data{cfg['data_seed']}"


def probe_setup(workload: str, seed: int, probe_dir: Path) -> float:
    """Seconds from starting a fresh interpreter until its tasks are ready."""
    probe_dir.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(probe_dir),
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
    return elapsed


def run_pass(cli, sets, out: Path, tracer=None):
    """One execution of every job of every data set, each set followed by its
    reports; returns (wall seconds, completed jobs per set, failures)."""
    for cfg, _ in sets:
        set_dir(out, cfg).mkdir(parents=True)
    done, failures = [], []
    j = 0  # job index across the sets, recorded with each span
    t0 = time.perf_counter()
    with span(tracer, "bench.pass"):
        for cfg, tasks in sets:
            out_dir, completed = set_dir(out, cfg), []
            for method, seed in jobs_of(cfg):
                if tracer is not None:
                    tracer.job, j = j, j + 1
                try:
                    with span(tracer, "cli._run_one"):
                        cli._run_one(cfg, tasks, method, seed, out_dir)
                    completed.append((method, seed))
                except Exception as e:  # noqa: BLE001 - a failed job is counted, not fatal
                    failures.append(f"{out_dir.name}/{method}_s{seed}: "
                                    f"{type(e).__name__}: {e}")
            if completed:
                with span(tracer, "cli._write_reports"):
                    cli._write_reports(out_dir)
            done.append(completed)
    return time.perf_counter() - t0, done, failures


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy without the dict form of show_config
        blas = {}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "git_rev": git_rev(),
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # no /proc outside Linux
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_rev() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """State of one benchmark run: the passes made and what they produced."""

    def __init__(self, cli, workload: str, seed: int, run_dir: Path, tracer=None):
        from rec.checkpoint import load_checkpoint
        from rec.controller import SearchConfig
        self.cli, self.run_dir = cli, run_dir
        self.sets = setup(cli, workload, seed, run_dir, tracer)
        self.jobs = [job for cfg, _ in self.sets for job in jobs_of(cfg)]
        cfg = self.sets[0][0]  # the data sets differ only in their seeds
        self.num_tasks = cfg.get_int("tasks")
        self.hidden = tuple(int(w) for w in cfg.get_list("hidden"))
        self.cap = SearchConfig().width_cap_factor
        self.load_checkpoint = load_checkpoint
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.first = None  # checks.PassOutputs of the first pass
        self.walls: list[float] = []
        self.setup_probes: list[float] = []  # seconds, in the end-to-end run

    def one_pass(self, tracer=None) -> float:
        n = len(self.walls)
        out = self.run_dir / f"pass{n}"
        wall, done, failures = run_pass(self.cli, self.sets, out, tracer)
        self.attempted += len(self.jobs)
        self.failures += [f"pass {n}: {f}" for f in failures]
        res = PassOutputs()
        for (cfg, _), completed in zip(self.sets, done):
            out_dir = set_dir(out, cfg)
            res.absorb(check_pass(out_dir, completed, self.num_tasks, self.hidden,
                                  self.cap, self.load_checkpoint), f"{out_dir.name}/")
        self.problems += [f"pass {n}: {p}" for p in res.problems]
        if self.first is None:
            self.first = res
        elif (res.digests, res.acc_final) != (self.first.digests, self.first.acc_final):
            self.problems.append(f"pass {n}{' (traced)' if tracer else ''}: "
                                 f"reports {res.digests} differ from pass 0 "
                                 f"{self.first.digests}")
        if n > 0:
            shutil.rmtree(out)
        self.walls.append(wall)
        return wall


def measure(seconds: float, step) -> None:
    """Repeat `step` (one pass, or one untraced and traced pair) while the
    median step still fits in the remaining budget; always run it once."""
    t0 = time.perf_counter()
    times = []
    while True:
        s0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - s0)
        if time.perf_counter() - t0 + statistics.median(times) > seconds:
            return


def end_to_end(cli, args, run_dir: Path) -> tuple[Run, dict[str, float]]:
    run = Run(cli, args.workload, args.seed, run_dir)
    setup_s = run.setup_probes

    def probes() -> None:
        for _ in range(SETUP_PROBES):
            setup_s.append(probe_setup(args.workload, args.seed,
                                       run_dir / f"probe{len(setup_s)}"))

    def step() -> None:
        run.one_pass()
        probes()

    probes()
    measure(args.seconds, step)
    accs = list(run.first.acc_final.values())
    metrics = {
        "setup_s": min(setup_s),
        "wall_s": statistics.median(run.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_final_mean": sum(accs) / len(accs) if accs else 0.0,
        "completed_job_share": 1.0 - len(run.failures) / run.attempted,
    }
    return run, metrics


def per_layer(cli, args, run_dir: Path) -> tuple[Run, dict[str, float]]:
    tracer = Tracer()
    restore = install(tracer, hooks=HOOKS)
    try:
        run = Run(cli, args.workload, args.seed, run_dir, tracer)
    finally:
        restore()
    gen_s = tracer.total("cli._build_tasks")
    job_methods = [m for m, _ in run.jobs]
    plain, traced, layer = [], [], []

    def pair() -> None:
        plain.append(run.one_pass())
        tracer.clear()
        undo = install(tracer, hooks=HOOKS)
        try:
            traced.append(run.one_pass(tracer))
        finally:
            undo()
        layer.append(pass_metrics(tracer, job_methods))
        tracer.save(run_dir / "spans.npz")

    measure(args.seconds, pair)
    metrics = {k: statistics.fmean(m[k] for m in layer) for k in layer[0]}
    gaps, forget = run.first.student_gaps, list(run.first.forgetting_task1.values())
    metrics["distill.student_gap"] = statistics.fmean(gaps) if gaps else 0.0
    metrics["lifelong.forgetting_task1"] = statistics.fmean(forget) if forget else 0.0
    metrics["data.gen_s"] = gen_s
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return run, metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    cli = import_rec()
    if args.setup_probe:
        setup(cli, args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    run_dir = OUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    if args.trace:
        (run, metrics), units = per_layer(cli, args, run_dir), UNITS
    else:
        (run, metrics), units = end_to_end(cli, args, run_dir), E2E_UNITS
    for failure in run.failures:
        print(f"job failed: {failure}", file=sys.stderr)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems and len(run.failures) < run.attempted,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "pass_walls": run.walls,
         "setup_probes": run.setup_probes,
         "digests": run.first.digests, "failures": run.failures, "problems": run.problems,
         "environment": env},
        indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
