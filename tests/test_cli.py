import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rec import cli
from rec.cli import ConfigError, _method_cfg, main, parse_config
from rec.lifelong import METHODS, method_config
from rec.regularize import PenaltyConfig

from conftest import traced_memory
from test_data import write_idx_pair

SMALL_CFG = """
# small smoke configuration
methods = sn,ewc
seeds = 0
tasks = 2
side = 6
classes = 5
train_samples = 300
test_samples = 150
hidden = 16,16
epochs = 3
batch_size = 128
fisher_samples = 200
"""


def write_cfg(tmp_path, body, out_dir, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(body + f"\nout_dir = {out_dir}\n")
    return p


def test_formats_doc_lists_every_key_with_its_default():
    # the key table of docs/formats.md: one row per key, `train_samples` and
    # `test_samples` share one (`a` / `b` in both columns)
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    table = doc[doc.index("| Key | Default | Meaning |"):].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[2:]:
        keys, defaults = (cell.strip() for cell in row.split("|")[1:3])
        documented.update(zip(re.findall("`([^`]*)`", keys), re.findall("`([^`]*)`", defaults)))
    assert documented == {key: row.default for key, row in cli.KEYS.items()}


class TestParseConfig:
    def test_defaults_fill_missing_keys(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("tasks = 3\n")
        cfg = parse_config(p)
        assert cfg.get_int("tasks") == 3
        assert cfg["task_kind"] == "permuted"

    def test_defaults_are_the_library_defaults(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        cfg = parse_config(p)
        for m in METHODS:
            assert _method_cfg(cfg, m) == method_config(m, PenaltyConfig())

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(p)

    def test_unknown_method_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("methods = sn,gradient_descent\n")
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config(p)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# a comment\n\ntasks = 4  # trailing\n")
        assert parse_config(p).get_int("tasks") == 4

    def test_split_all_learned_accepted_with_search(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("methods = sn,net2net_ewc,rec\ntask_kind = split\n"
                     "reward_scope = all-learned\n")
        assert parse_config(p)["reward_scope"] == "all-learned"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "nope.txt")

    def test_undecodable_file_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"tasks = 3\nmethods = sn\xff\n")
        with pytest.raises(ConfigError, match=r"cannot read config file .*c\.txt: .*0xff"):
            parse_config(p)

    def test_repeated_key_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("epochs = 3\ntasks = 2\n# again:\nepochs = 4\n")
        with pytest.raises(ConfigError, match=r"c\.txt:4: config key 'epochs' already set "
                                              r"on line 1"):
            parse_config(p)

    @pytest.mark.parametrize("body, message", [
        ("tasks = 2.5\n", "not an integer"),
        ("tasks = \u0661\n", "not an integer"),  # an Arabic-Indic digit one, which int() reads
        ("tasks = 1_000\n", "not an integer"),
        ("lr = 0_1\n", "not a number"),
        ("hidden = 40,x\n", "not an integer"),
        ("seeds = 0,-1\n", "must be >= 0"),
        ("batch_size = 0\n", "must be >= 1"),
        ("lr = nan\n", "must be finite"),
        ("lambda_ewc = inf\n", "must be finite"),
        ("lambda_1 = -1e-5\n", "must be finite and >= 0"),
        ("momentum = 1\n", "in \\[0, 1\\)"),
        ("epsilon = 0\n", "in \\(0, 1e-4\\]"),
        ("fisher_samples = 0\n", "must be >= 1"),
        ("controller_lr = abc\n", "not a number"),
        ("seeds = ,\n", "seeds is empty"),
        ("methods = sn,ewc,sn\n", "methods = 'sn,ewc,sn': sn is listed twice"),
        ("seeds = 0,0\n", "seeds = '0,0': 0 is listed twice"),
        ("seeds = 1, 2,01\n", "seeds = '1, 2,01': 1 is listed twice"),
        ("reward_scope = everything\n",
         "unknown reward_scope 'everything'; known: new-only, all-learned"),
        ("task_kind = shuffled\n", "unknown task_kind 'shuffled'; known: permuted, rotated, split"),
        ("task_kind = split\ntasks = 3\n", "divisible"),
        ("methods = net2net\nhidden =\n", "hidden is empty"),
        ("methods = sn,net2net_ewc\nhidden =\n", "hidden is empty"),
        ("methods = rec\nhidden =\n", "hidden is empty"),
        ("dataset = foo\n", "dataset = 'foo'"),
        ("dataset = a,b,c\n", "dataset = 'a,b,c'"),
        ("dataset = a,\n", "dataset = 'a,'"),
        ("dataset = a,b;c\n", "dataset = 'a,b;c'"),
        ("dataset = a,b;\n", "dataset = 'a,b;'"),
        ("dataset = a,b;c,d;e,f\n", "dataset = 'a,b;c,d;e,f'"),
    ])
    def test_bad_values_rejected(self, tmp_path, body, message):
        p = tmp_path / "c.txt"
        p.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            parse_config(p)

    WELL_FORMED = [  # a config body, then some of its parsed values
        ("", {"seeds": (0, 1, 2), "hidden": (40, 40), "lr": 0.03, "dataset": "synthetic"}),
        ("dataset = tr_imgs,tr_labels\n", {"dataset": (("tr_imgs", "tr_labels"),)}),
        ("dataset = tr_imgs , tr_labels ; te_imgs , te_labels\n",
         {"dataset": (("tr_imgs", "tr_labels"), ("te_imgs", "te_labels"))}),
        ("methods = sn,ewc,mwc\nhidden =\n", {"hidden": ()}),
        ("tasks = +3\nlr = +0.5\n", {"tasks": 3, "lr": 0.5}),
    ]

    @pytest.mark.parametrize("body, typed", [pytest.param(*case, id=case[0] or "empty")
                                             for case in WELL_FORMED])
    def test_well_formed_values_accepted(self, tmp_path, body, typed):
        # each value is parsed once, into what its KEYS row takes
        p = tmp_path / "c.txt"
        p.write_text(body)
        cfg = parse_config(p)
        assert {key: cfg[key] for key in typed} == typed


class TestBuildTasks:
    @pytest.mark.parametrize("dataset", ["synthetic", "idx"])
    def test_peak_is_near_what_it_keeps(self, tmp_path, dataset):
        # 5,000 images of 16x16 (wide-consolidate's data): generated 4,000 +
        # 1,000, or read from one IDX pair and split 80/20. Only the images
        # may be built at full size, once; every split is a view of them.
        body = "side = 16\ntrain_samples = 4000\ntest_samples = 1000\n"
        if dataset == "idx":
            images = np.random.default_rng(0).integers(0, 256, (5000, 16, 16))
            img, lab = write_idx_pair(tmp_path, images, np.arange(5000) % 10)
            body = f"dataset = {img},{lab}\n"
        cfg = parse_config(write_cfg(tmp_path, body, tmp_path / "out"))
        _, retained, peak = traced_memory(cli._build_tasks, cfg)
        assert retained > 5000 * 256 * 4  # the float32 images
        assert peak <= 1.25 * retained, (peak, retained)


class TestRunCommand:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.txt")]) == 2

    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("bogus_key = 1\n")
        assert main(["run", str(p)]) == 2

    def test_non_integer_tasks_exits_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "tasks = abc", tmp_path / "out")
        assert main(["run", str(p)]) == 2
        assert "tasks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_epochs_exits_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "epochs = -1", tmp_path / "out")
        assert main(["run", str(p)]) == 2
        assert "epochs" in capsys.readouterr().err

    def test_split_with_zero_tasks_exits_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "task_kind = split\ntasks = 0", tmp_path / "out")
        assert main(["run", str(p)]) == 2
        assert "tasks" in capsys.readouterr().err

    @pytest.mark.parametrize("body, key", [("dataset = only_one_path", "dataset"),
                                           ("methods = net2net\nhidden =", "hidden"),
                                           ("methods = sn,sn\nseeds = 0,0", "methods")])
    def test_malformed_value_exits_2_naming_the_key(self, tmp_path, capsys, body, key):
        p = write_cfg(tmp_path, body, tmp_path / "out")
        assert main(["run", str(p)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reward_scope", ["new-only", "all-learned"])
    @pytest.mark.parametrize("task_kind", ["permuted", "rotated", "split"])
    def test_smoke_matrix(self, tmp_path, task_kind, reward_scope):
        body = (f"methods = net2net_ewc,rec\nseeds = 0\ntasks = 2\ntask_kind = {task_kind}\n"
                f"reward_scope = {reward_scope}\nside = 4\nclasses = 4\n"
                "train_samples = 160\ntest_samples = 40\nhidden = 8\nepochs = 1\n"
                "batch_size = 64\nfisher_samples = 40\nsearch_budget = 2\n"
                "m_children = 2\nchild_epochs = 1\ncompress_epochs = 1\n")
        out = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path, body, out))]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["net2net_ewc", "0"], ["rec", "0"]]

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.txt"
        p.write_bytes(f"out_dir = {tmp_path / 'out'}\nmethods = sn\n".encode() + b"# \xff\n")
        assert main(["run", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {p}")
        assert not (tmp_path / "out").exists()

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "epochs = 3\nepochs = 4", tmp_path / "out")
        assert main(["run", str(p)]) == 2
        assert "config key 'epochs' already set on line" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_idx_files_exit_1(self, tmp_path, capsys):
        p = write_cfg(tmp_path, f"dataset = {tmp_path}/imgs,{tmp_path}/labels",
                      tmp_path / "out")
        assert main(["run", str(p)]) == 1
        assert "run failed" in capsys.readouterr().err

    @pytest.mark.parametrize("task_kind,code", [("rotated", 1), ("permuted", 0)])
    def test_rotated_non_square_idx_exits_1(self, tmp_path, capsys, task_kind, code):
        # 16x36 images have 576 = 24^2 pixels, but they are no 24x24 grid
        images = np.random.default_rng(0).integers(0, 256, (60, 16, 36))
        img, lab = write_idx_pair(tmp_path, images, np.arange(60) % 2)
        p = write_cfg(tmp_path, f"dataset = {img},{lab}\ntask_kind = {task_kind}\n"
                      "tasks = 2\nmethods = sn\nhidden = 8\nepochs = 1\n", tmp_path / "out")
        assert main(["run", str(p)]) == code
        if code:
            assert capsys.readouterr().err == (
                f"run failed: ValueError: rotated tasks need square images; {img} holds "
                "16x36 images\n")
            assert not list((tmp_path / "out").glob("results_*"))

    def test_idx_train_and_test_sizes_differ_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        (tmp_path / "train").mkdir()
        (tmp_path / "test").mkdir()
        train = write_idx_pair(tmp_path / "train", rng.integers(0, 256, (100, 8, 8)),
                               np.arange(100) % 4)
        test = write_idx_pair(tmp_path / "test", rng.integers(0, 256, (40, 6, 6)),
                              np.arange(40) % 4)
        p = write_cfg(tmp_path, f"dataset = {train[0]},{train[1]};{test[0]},{test[1]}\n"
                      "tasks = 2\nmethods = sn\nhidden = 8\nepochs = 1\n", tmp_path / "out")
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"run failed: ValueError: train and test images differ in size: {train[0]} "
            f"holds 8x8 images, {test[0]} holds 6x6 images\n")
        assert not list((tmp_path / "out").glob("results_*"))

    @pytest.mark.parametrize("case", ["empty-test", "empty-train", "one-image", "counts",
                                      "no-pixels"])
    def test_idx_without_rows_exits_1_naming_the_file(self, tmp_path, capsys, case):
        # each is rejected before any job runs, naming the file(s) and counts
        rng = np.random.default_rng(0)
        sizes = {"empty-test": (40, 0), "empty-train": (0, 40), "one-image": (1,),
                 "counts": (40, 20), "no-pixels": (50,)}[case]
        side = 0 if case == "no-pixels" else 4
        pairs = []
        for i, n in enumerate(sizes):
            (tmp_path / str(i)).mkdir()
            pairs.append(write_idx_pair(tmp_path / str(i), rng.integers(0, 256, (n, side, side)),
                                        np.arange(n) % 2))
        if case == "counts":
            pairs[1][1].write_bytes(pairs[0][1].read_bytes())
        p = write_cfg(tmp_path, "dataset = " + ";".join(f"{i},{l}" for i, l in pairs)
                      + "\ntasks = 2\nmethods = sn\nhidden = 8\nepochs = 1\n", tmp_path / "out")
        assert main(["run", str(p)]) == 1
        message = {
            "empty-test": f"IDX image file {pairs[-1][0]} holds 0 images",
            "empty-train": f"IDX image file {pairs[0][0]} holds 0 images",
            "one-image": (f"{pairs[0][0]} holds 1 image, and its first 80% (the training "
                          "part) holds none"),
            "counts": (f"IDX image/label counts differ: {pairs[-1][0]} holds 20 images, "
                       f"{pairs[-1][1]} holds 40 labels"),
            "no-pixels": f"IDX image file {pairs[0][0]} holds 0x0 images: no pixels",
        }[case]
        assert capsys.readouterr().err == f"run failed: ValueError: {message}\n"
        assert not list((tmp_path / "out").glob("results_*"))

    @pytest.mark.parametrize("body, message", [
        ("task_kind = split\ntrain_samples = 6\nmethods = sn",
         r"task 1 has an empty train split: 0 train, 0 validation, \d+ test rows"),
        ("task_kind = split\ntrain_samples = 6\nmethods = sn,ewc",
         r"task 1 has an empty train split: 0 train, 0 validation, \d+ test rows"),
        ("task_kind = split\ntest_samples = 3\nmethods = sn",
         r"task 2 has an empty test split: \d+ train, \d+ validation, 0 test rows"),
        ("train_samples = 4\nmethods = sn,rec",
         "task 1 has an empty validation split, which the search of rec scores on: "
         "4 train, 0 validation, 1000 test rows"),
    ], ids=["split-train", "split-train-ewc", "split-test", "validation"])
    def test_task_with_an_empty_split_exits_1(self, tmp_path, capsys, body, message):
        # rejected once the tasks are built, before any job runs
        p = write_cfg(tmp_path, body + "\nseeds = 0\n", tmp_path / "out")
        assert main(["run", str(p)]) == 1
        assert re.fullmatch(f"run failed: ValueError: {message}\n", capsys.readouterr().err)
        assert not list((tmp_path / "out").glob("results_*"))

    def test_one_file_idx_pair_too_small_to_search_exits_1(self, tmp_path, capsys):
        # 2 images: the 80/20 cut leaves 1 training row, and its validation part none
        rng = np.random.default_rng(0)
        images, labels = write_idx_pair(tmp_path, rng.integers(0, 256, (2, 4, 4)), np.arange(2))
        p = write_cfg(tmp_path, f"dataset = {images},{labels}\ntasks = 1\nmethods = sn,ewc,rec\n"
                      "hidden = 8\nepochs = 1\nseeds = 0\n", tmp_path / "out")
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == (
            "run failed: ValueError: task 1 has an empty validation split, which the search "
            "of rec scores on: 1 train, 0 validation, 1 test rows\n")
        assert not list((tmp_path / "out").glob("results_*"))

    def test_empty_validation_split_is_fine_without_a_search(self, tmp_path):
        # net2net expands on a schedule and never reads its validation rows
        p = write_cfg(tmp_path, "train_samples = 4\ntasks = 2\nmethods = sn,net2net\n"
                      "epochs = 1\nseeds = 0\n", tmp_path / "out")
        assert main(["run", str(p)]) == 0

    def test_smoke_run_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_CFG, tmp_path / "out")
        assert main(["run", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "summary.csv").read_text().count("\n") >= 3
        assert (out / "series.csv").exists()
        recs = [json.loads(l) for l in
                (out / "results_sn_s0.jsonl").read_text().splitlines()]
        assert [r["task"] for r in recs] == [1, 2]
        assert (out / "final_ewc_s0.recnet").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = write_cfg(tmp_path, SMALL_CFG, tmp_path / "o1", "c1.txt")
        cfg2 = write_cfg(tmp_path, SMALL_CFG, tmp_path / "o2", "c2.txt")
        assert main(["run", str(cfg1)]) == 0
        assert main(["run", str(cfg2)]) == 0
        for name in ("summary.csv", "series.csv", "results_sn_s0.jsonl",
                     "final_sn_s0.recnet"):
            assert (tmp_path / "o1" / name).read_bytes() == \
                (tmp_path / "o2" / name).read_bytes()

    def test_rerun_writes_identical_files(self, tmp_path):
        # every file, not only the reports: records, search logs, checkpoints
        body = ("methods = sn,ewc,net2net_ewc,rec\nseeds = 0\ntasks = 3\ntask_kind = rotated\n"
                "reward_scope = all-learned\nside = 6\nclasses = 4\ntrain_samples = 300\n"
                "test_samples = 100\nhidden = 12,12\nepochs = 2\nbatch_size = 64\n"
                "fisher_samples = 60\nsearch_budget = 3\nm_children = 2\nchild_epochs = 1\n"
                "compress_epochs = 2\n")
        written = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["run", str(write_cfg(tmp_path, body, out, f"{tag}.txt"))]) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(written[0]) == [
            *(f"final_{m}_s0.recnet" for m in ("ewc", "net2net_ewc", "rec", "sn")),
            *(f"results_{m}_s0.jsonl" for m in ("ewc", "net2net_ewc", "rec", "sn")),
            "search_rec_s0.jsonl", "series.csv", "summary.csv"]
        assert written[0] == written[1]

    def test_diverging_job_does_not_stop_the_others(self, tmp_path, capsys):
        # lambda_ewc = 1e6 overflows every float32 child of rec's search; sn
        # has no penalty.
        body = ("methods = rec,sn\nseeds = 0\ntasks = 2\nside = 4\nclasses = 3\n"
                "train_samples = 200\ntest_samples = 50\nhidden = 8\nepochs = 2\n"
                "batch_size = 16\nfisher_samples = 50\nsearch_budget = 2\n"
                "m_children = 2\ncompress_epochs = 2\nlambda_ewc = 1e6\n")
        out = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path, body, out))]) == 1
        assert capsys.readouterr().err == (
            "job rec s0 diverged: every sampled child diverged during the search\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "final_sn_s0.recnet", "results_sn_s0.jsonl", "series.csv", "summary.csv"]
        rows = (out / "summary.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["sn"]

    def test_failing_job_does_not_stop_the_others(self, tmp_path, capsys, monkeypatch):
        real = cli.run_sequence

        def ewc_fails(tasks, method, seed, hidden):
            if method.penalty.lambda_ewc > 0:
                raise ValueError("boom")
            return real(tasks, method, seed, hidden)

        monkeypatch.setattr(cli, "run_sequence", ewc_fails)
        out = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path, SMALL_CFG, out))]) == 1
        assert "job ewc s0 failed: ValueError: boom" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "final_sn_s0.recnet", "results_sn_s0.jsonl", "series.csv", "summary.csv"]
        rows = (out / "summary.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["sn"]

    def test_rerun_removes_stale_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path, SMALL_CFG, out, "a.txt"))]) == 0
        (out / "search_ewc_s0.jsonl").write_text("{}\n")
        (out / "notes.txt").write_text("kept\n")
        body = SMALL_CFG.replace("methods = sn,ewc", "methods = sn")
        assert main(["run", str(write_cfg(tmp_path, body, out, "b.txt"))]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "final_sn_s0.recnet", "notes.txt", "results_sn_s0.jsonl", "series.csv",
            "summary.csv"]
        rows = (out / "summary.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["sn"]


class TestReportCommand:
    def test_report_recomputes_from_jsonl(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_CFG, tmp_path / "out")
        assert main(["run", str(cfg)]) == 0
        out = tmp_path / "out"
        before = (out / "summary.csv").read_bytes()
        (out / "summary.csv").unlink()
        assert main(["report", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == before
        printed = capsys.readouterr().out
        assert "ACC(T)" in printed and "ewc" in printed

    def test_report_empty_dir_fails(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 1

    GOOD_RECORD = b'{"accuracies": [0.5], "method": "sn", "param_count": 10, "seed": 0, "task": 1}'

    @pytest.mark.parametrize("line, what", [
        (b"not json", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply: maximum recursion depth exceeded "
                                          "while decoding a JSON array from a unicode string"),
        (b'{"method": "sn", "param_count": 10, "seed": 0, "task": 2}', "no 'accuracies'"),
        (b'{"accuracies": [], "method": "sn", "param_count": 10, "seed": 0, "task": 2}',
         "'accuracies' must be a non-empty list of numbers"),
        (b'{"accuracies": [0.5, "x"], "method": "sn", "param_count": 10, "seed": 0, "task": 2}',
         "'accuracies' must be a non-empty list of numbers"),
        (b'{"accuracies": [0.5], "method": "sn", "param_count": 10, "seed": "0", "task": 2}',
         "'seed' must be int, not str"),
        (b"[1, 2]", "a record is a JSON object, not list"),
        (b"\xff{}", "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte"),
        (b'{"accuracies": [NaN], "method": "sn", "param_count": 10, "seed": 0, "task": 2}',
         "'accuracies' must be fractions in [0, 1]"),
        (b'{"accuracies": [Infinity, 0.5], "method": "sn", "param_count": 10, "seed": 0, '
         b'"task": 2}', "'accuracies' must be fractions in [0, 1]"),
        (b'{"accuracies": [0.5, 1.5], "method": "sn", "param_count": 12, "seed": 0, "task": 2}',
         "'accuracies' must be fractions in [0, 1]"),
        (GOOD_RECORD, "a second record for method 'sn', seed 0, task 1"),
        # task 0 with param_count -4 and three accuracies, then task 7
        (b'{"accuracies": [0.5, 0.5, 0.5], "method": "sn", "param_count": -4, "seed": 0, '
         b'"task": 0}\n{"accuracies": [0.5], "method": "sn", "param_count": 10, "seed": 0, '
         b'"task": 7}', "'task' must be >= 1, not 0"),
        (b'{"accuracies": [0.5, 0.5], "method": "sn", "param_count": -4, "seed": 0, "task": 2}',
         "'param_count' must be >= 0, not -4"),
        (b'{"accuracies": [0.5, 0.5, 0.5], "method": "sn", "param_count": 10, "seed": 0, '
         b'"task": 2}', "task 2 must hold 2 accuracies, one per learned task, not 3"),
        (b'{"accuracies": [0.5], "method": "sn", "param_count": 10, "seed": 0, "task": 7}',
         "task 7 must hold 7 accuracies, one per learned task, not 1"),
        (b'{"accuracies": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5], "method": "sn", '
         b'"param_count": 10, "seed": 0, "task": 7}',
         "method 'sn', seed 0 has task 7 but no task 6"),
    ], ids=["not-json", "deeply-nested", "no-accuracies", "no-accuracy", "text-accuracy",
            "text-seed", "list", "not-utf8", "nan-accuracy", "infinite-accuracy",
            "accuracy-above-1", "repeated-task", "task-0-then-task-7", "negative-param-count",
            "more-accuracies-than-tasks", "fewer-accuracies-than-tasks", "skipped-tasks"])
    def test_report_names_the_malformed_record_and_exits_1(self, tmp_path, capsys, line, what):
        path = tmp_path / "results_sn_s0.jsonl"
        path.write_bytes(self.GOOD_RECORD + b"\n" + line + b"\n")
        assert main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"report failed: ValueError: {path}:2: {what}\n"
        assert not (tmp_path / "summary.csv").exists()


class TestCheckpointCommand:
    def test_save_load_round_trip(self, tmp_path, capsys):
        p = tmp_path / "net.recnet"
        assert main(["checkpoint", "save", str(p), "--arch", "6,8,4", "--seed", "5"]) == 0
        assert main(["checkpoint", "load", str(p)]) == 0
        out = capsys.readouterr().out
        assert "arch: 6-8-4" in out
        assert "params:" in out

    def test_load_prints_the_widths_of_a_net_without_hidden_layers(self, tmp_path, capsys):
        p = tmp_path / "net.recnet"
        assert main(["checkpoint", "save", str(p), "--arch", "6,4"]) == 0
        assert main(["checkpoint", "load", str(p)]) == 0
        assert "arch: 6-4\n" in capsys.readouterr().out

    def test_save_with_fewer_than_two_widths_exits_1(self, tmp_path, capsys):
        p = tmp_path / "net.recnet"
        assert main(["checkpoint", "save", str(p), "--arch", "64"]) == 1
        assert capsys.readouterr().err.startswith("checkpoint failed: --arch '64'")
        assert not p.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--arch", "4,x,2"], "--arch '4,x,2': invalid literal for int() with base 10: 'x'"),
        (["--arch", "4,0,2"], "--arch '4,0,2': hidden widths must be >= 1: (0,)"),
        (["--arch", "4,3,2", "--seed", "-1"], "--seed -1: must be >= 0")])
    def test_save_names_the_bad_flag_and_exits_1(self, tmp_path, capsys, flags, message):
        p = tmp_path / "net.recnet"
        assert main(["checkpoint", "save", str(p), *flags]) == 1
        assert capsys.readouterr().err == f"checkpoint failed: {message}\n"
        assert not p.exists()

    def test_save_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.recnet", tmp_path / "b.recnet"
        main(["checkpoint", "save", str(p1), "--arch", "6,8,4", "--seed", "5"])
        main(["checkpoint", "save", str(p2), "--arch", "6,8,4", "--seed", "5"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_without_arch_exits_2(self, tmp_path):
        assert main(["checkpoint", "save", str(tmp_path / "x.recnet")]) == 2

    def test_load_corrupt_exits_1(self, tmp_path):
        p = tmp_path / "bad.recnet"
        p.write_bytes(b"garbage bytes here")
        assert main(["checkpoint", "load", str(p)]) == 1

    def test_load_trailing_bytes_exits_1(self, tmp_path, capsys):
        p = tmp_path / "net.recnet"
        main(["checkpoint", "save", str(p), "--arch", "6,8,4"])
        p.write_bytes(p.read_bytes() + b"\0" * 8)
        assert main(["checkpoint", "load", str(p)]) == 1
        assert "trailing bytes" in capsys.readouterr().err

    def test_load_missing_file_exits_1(self, tmp_path):
        assert main(["checkpoint", "load", str(tmp_path / "absent.recnet")]) == 1

    def test_load_deeply_nested_header_exits_1(self, tmp_path, capsys):
        header = b"[" * 100_000 + b"]" * 100_000
        p = tmp_path / "nested.recnet"
        p.write_bytes(b"RECNET01" + len(header).to_bytes(4, "little") + header)
        assert main(["checkpoint", "load", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("checkpoint failed: bad checkpoint header: RecursionError: ")
        assert err.count("\n") == 1

    def test_an_unexpected_error_is_one_line_and_exit_1(self, tmp_path, capsys, monkeypatch):
        def boom(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "load_checkpoint", boom)
        assert main(["checkpoint", "load", str(tmp_path / "n.recnet")]) == 1
        assert capsys.readouterr().err == "checkpoint failed: RuntimeError: boom\n"


@pytest.mark.parametrize("command", ["report", "checkpoint save", "checkpoint load"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, command):
    # stdout is a pipe whose reader is gone before the command prints, as when
    # `head -1` exits first in `rec report DIR | head -1`
    (tmp_path / "results_sn_s0.jsonl").write_text(json.dumps(
        {"method": "sn", "seed": 0, "task": 1, "accuracies": [0.5], "param_count": 10}) + "\n")
    assert main(["checkpoint", "save", str(tmp_path / "n.recnet"), "--arch", "4,3,2"]) == 0
    args = {"report": ["report", str(tmp_path)],
            "checkpoint save": ["checkpoint", "save", str(tmp_path / "m.recnet"), "--arch", "4,2"],
            "checkpoint load": ["checkpoint", "load", str(tmp_path / "n.recnet")]}[command]
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "rec.cli", *args], stdout=write_end,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
                              timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")
