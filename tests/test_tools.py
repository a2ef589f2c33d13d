import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
SAME_OUTPUTS = ROOT / "tools" / "same_outputs.py"
TINY_CFG = "methods = sn\ntasks = 2\ntrain_samples = 200\ntest_samples = 100\nepochs = 1\nseeds = 0\n"


def same_outputs(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SAME_OUTPUTS), *map(str, args)],
                          capture_output=True, text=True)


def test_same_outputs_tells_a_changed_tree_from_itself(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CFG)
    src = ROOT / "src"
    same = same_outputs(src, src, cfg)
    assert (same.returncode, same.stdout) == (0, f"identical: {cfg} (exit 0, 5 files)\n"), \
        same.stderr

    changed = tmp_path / "changed"
    shutil.copytree(src / "rec", changed / "rec", ignore=shutil.ignore_patterns("__pycache__"))
    lifelong = changed / "rec" / "lifelong.py"
    text = lifelong.read_text()
    assert "VAL_RATIO = 0.1 " in text
    lifelong.write_text(text.replace("VAL_RATIO = 0.1 ", "VAL_RATIO = 0.2 "))
    differs = same_outputs(src, changed, cfg)
    assert differs.returncode == 1, differs.stderr
    assert differs.stdout == (f"differs: {cfg}: out/final_sn_s0.recnet, "
                              "out/results_sn_s0.jsonl, out/series.csv [sn s0], "
                              "out/summary.csv [sn s0]\n")


def test_same_outputs_names_the_jobs_whose_report_rows_moved(tmp_path):
    # A larger Fisher moves ewc, which anchors to it, and not sn, which has none.
    # Task 2's first step starts at the anchor, where the Fisher term is 0, so
    # ewc needs more than one step (180 training rows are one batch).
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CFG.replace("methods = sn", "methods = sn,ewc")
                   .replace("epochs = 1", "epochs = 3"))
    src = ROOT / "src"
    changed = tmp_path / "changed"
    shutil.copytree(src / "rec", changed / "rec", ignore=shutil.ignore_patterns("__pycache__"))
    regularize = changed / "rec" / "regularize.py"
    text = regularize.read_text()
    assert text.count("return acc / n\n") == 1
    regularize.write_text(text.replace("return acc / n\n", "return 1e6 * acc / n\n"))
    differs = same_outputs(src, changed, cfg)
    assert differs.returncode == 1, differs.stderr
    assert differs.stdout == (f"differs: {cfg}: out/final_ewc_s0.recnet, "
                              "out/results_ewc_s0.jsonl, out/series.csv [ewc s0], "
                              "out/summary.csv [ewc s0]\n")


def test_same_outputs_rejects_a_config_that_sets_out_dir(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CFG + "out_dir = elsewhere\n")
    result = same_outputs(ROOT / "src", ROOT / "src", cfg)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {cfg} sets out_dir; this tool sets it\n"
