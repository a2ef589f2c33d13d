"""Per-layer metrics of the traced run, derived from spans and counters.

A layer is a module of `src/rec`; span names are '<module>.<function>'.
Counters are taken at the same call boundaries by the hooks below; GFLOP
figures are computed from matrix shapes, not measured.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import Tracer, self_times
from workloads import ALL_METHODS

METHODS = ALL_METHODS.split(",")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _macs(net) -> list[int]:
    ws = net.arch.widths
    return [fi * fo for fi, fo in zip(ws[:-1], ws[1:])]


def _forward_hook(tracer: Tracer, args, kwargs) -> None:
    net, batch = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "batch")
    n = batch.inputs.shape[0]
    tracer.count("rows", n)
    tracer.count("flop", 2 * n * sum(_macs(net)))


def _predict_hook(tracer: Tracer, args, kwargs) -> None:
    net, inputs = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "inputs")
    n = inputs.shape[0]
    tracer.count("rows", n)
    tracer.count("flop", 2 * n * sum(_macs(net)))


def _backward_hook(tracer: Tracer, args, kwargs) -> None:
    net, dlogits = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 2, "dlogits")
    macs = _macs(net)
    # weight gradient for every layer, error propagation for all but the first
    tracer.count("flop", 2 * dlogits.shape[0] * (2 * sum(macs) - macs[0]))


def _fisher_hook(tracer: Tracer, args, kwargs) -> None:
    dataset = _arg(args, kwargs, 1, "dataset")
    tracer.count("fisher_samples", min(_arg(args, kwargs, 2, "max_samples"), len(dataset)))


HOOKS = {
    "netcore.forward": _forward_hook,
    "netcore.predict_logits": _predict_hook,
    "netcore.backward": _backward_hook,
    "regularize.estimate_fisher": _fisher_hook,
}

SELF_S = ["netcore.forward", "netcore.backward", "netcore.sgd_step", "netcore.loss_ce",
          "netcore.predict_logits", "regularize.mwc_loss", "regularize.ewc_term",
          "regularize.l21_term", "regularize.l1_term", "controller.sample_episode",
          "controller.reinforce_update", "controller.encode", "transform.apply_actions",
          "transform.align_reference"]
INCL_S = ["regularize.estimate_fisher", "regularize.train_task", "controller.search_child",
          "transform.apply_actions", "distill.compress"]
CALLS = ["netcore.forward", "netcore.backward", "netcore.sgd_step",
         "regularize.estimate_fisher", "regularize.train_task", "transform.apply_actions",
         "distill.compress"]

# name -> unit, for every metric `pass_metrics` and `run` emit in a traced run
UNITS: dict[str, str] = {
    **{f"{n}.self_s": "s" for n in SELF_S},
    **{f"{n}.incl_s": "s" for n in INCL_S},
    **{f"{n}.calls": "count" for n in CALLS},
    "netcore.rows": "count",
    "netcore.gflop": "GFLOP",
    "netcore.gflop_per_s": "GFLOP/s",
    "regularize.fisher_us_per_sample": "us",
    "regularize.diverged": "count",
    "controller.children": "count",
    "controller.child_diverged_ratio": "fraction",
    "distill.student_gap": "fraction",
    **{f"lifelong.job_s.{m}": "s" for m in METHODS},
    "lifelong.evaluate.incl_s": "s",
    "lifelong.forgetting_task1": "fraction",
    "data.gen_s": "s",
    "checkpoint.save_s": "s",
    "cli.report_s": "s",
    "trace.attributed_share": "fraction",
    "trace.overhead_ratio": "ratio",
}


def pass_metrics(tracer: Tracer, job_methods: list[str]) -> dict[str, float]:
    """Span and counter metrics of one traced pass whose root span is
    'bench.pass'. Times are seconds for the whole pass; lifelong.job_s.<m>
    is the mean run_sequence time of one job of method m (0 if not run)."""
    cols = tracer.columns()
    names = [tracer.keys[k] for k in cols["key"]]
    dur = cols["end"] - cols["start"]
    self_s = self_times(cols["start"], cols["end"], cols["parent"])

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, (name, _) in enumerate(names):
        by_name[name].append(i)

    def total(values: np.ndarray, name: str, site: str | None = None) -> float:
        return float(sum(values[i] for i in by_name.get(name, ())
                         if site is None or names[i][1] == site))

    m: dict[str, float] = {}
    for n in SELF_S:
        m[f"{n}.self_s"] = total(self_s, n)
    for n in INCL_S:
        m[f"{n}.incl_s"] = total(dur, n)
    for n in CALLS:
        m[f"{n}.calls"] = float(len(by_name.get(n, ())))

    flop = tracer.counters.get("flop", 0.0)
    kernel_s = sum(m[f"netcore.{k}.self_s"] for k in ("forward", "backward", "predict_logits"))
    m["netcore.rows"] = tracer.counters.get("rows", 0.0)
    m["netcore.gflop"] = flop / 1e9
    m["netcore.gflop_per_s"] = flop / 1e9 / kernel_s if kernel_s > 0 else 0.0

    samples = tracer.counters.get("fisher_samples", 0.0)
    m["regularize.fisher_us_per_sample"] = (
        1e6 * m["regularize.estimate_fisher.incl_s"] / samples if samples else 0.0)
    m["regularize.diverged"] = total(cols["raised"], "regularize.train_task")

    children = len(by_name.get("controller.sample_episode", ()))
    m["controller.children"] = float(children)
    m["controller.child_diverged_ratio"] = (
        total(cols["raised"], "regularize.train_task", "controller") / children
        if children else 0.0)

    job_time: dict[str, list[float]] = defaultdict(list)
    for i in by_name.get("lifelong.run_sequence", ()):
        job_time[job_methods[cols["job"][i]]].append(dur[i])
    for method in METHODS:
        times = job_time.get(method)
        m[f"lifelong.job_s.{method}"] = float(np.mean(times)) if times else 0.0
    m["lifelong.evaluate.incl_s"] = total(dur, "netcore.evaluate", "lifelong")

    m["checkpoint.save_s"] = total(dur, "checkpoint.save_checkpoint")
    m["cli.report_s"] = total(dur, "cli._write_reports")
    # The benchmark's own code between rec calls (its loop, the JSON writes in
    # _run_one) is the self time of these two spans; the rest is in layer spans.
    own = total(self_s, "bench.pass") + total(self_s, "cli._run_one")
    m["trace.attributed_share"] = 1.0 - own / total(dur, "bench.pass")
    return m
