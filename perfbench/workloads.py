"""Benchmark workloads: `rec run` configs whose data and job seeds come from
the workload seed. Why each workload exists is in README.md."""

from __future__ import annotations

from dataclasses import dataclass

ALL_METHODS = "sn,ewc,ewc_l1,ewc_l21,mwc,net2net,net2net_ewc,rec"


@dataclass(frozen=True)
class Workload:
    config: dict[str, str]  # keys of the `rec run` config; the rest keep defaults
    job_seeds: int          # jobs per data set, with seeds data_seed, data_seed+1, ...
    data_sets: int = 1      # `rec run` configs per pass, one per data seed

    def data_seeds(self, seed: int) -> list[int]:
        """Data seeds of workload seed `seed`: n*seed, ..., n*seed + n - 1 for
        n data sets, so different workload seeds share no data."""
        return [self.data_sets * seed + k for k in range(self.data_sets)]

    def config_text(self, data_seed: int, out_dir: str) -> str:
        values = {**self.config,
                  "data_seed": str(data_seed),
                  "seeds": ",".join(str(data_seed + i) for i in range(self.job_seeds)),
                  "out_dir": out_dir}
        return "".join(f"{k} = {v}\n" for k, v in values.items())


WORKLOADS: dict[str, Workload] = {
    "grid-default": Workload({"methods": ALL_METHODS}, job_seeds=3),
    # Twelve data sets of one 3-task job each: how long a rec job takes, and how
    # accurate it ends, depends on its data and on the children its search
    # picks, so a pass averages over twelve of both to keep wall_s and
    # acc_final_mean steady across workload seeds.
    "rec-search": Workload({"methods": "rec", "tasks": "3", "search_budget": "12",
                            "m_children": "4"}, job_seeds=1, data_sets=12),
    # One job seed: its accuracy barely varies with the seed, and three would
    # leave room for a single pass per run.
    "wide-consolidate": Workload({"methods": "ewc,mwc", "side": "16", "hidden": "128,128",
                                  "train_samples": "4000", "test_samples": "1000",
                                  "fisher_samples": "1000"}, job_seeds=1),
    # Seconds-long configuration for the benchmark's own tests; not in BENCHMARK.json.
    "smoke": Workload({"methods": ALL_METHODS, "tasks": "2", "train_samples": "200",
                       "test_samples": "100", "epochs": "1", "fisher_samples": "20",
                       "search_budget": "2", "m_children": "2", "compress_epochs": "2"},
                      job_seeds=1),
}
