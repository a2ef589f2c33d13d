"""Check that two source trees make `rec run` produce the same bytes.

    python tools/same_outputs.py OLD_SRC NEW_SRC [CONFIG ...]

OLD_SRC and NEW_SRC are directories holding the `rec` package (a checkout's
`src`). For each config, `python -m rec.cli run config.txt` runs once with
each tree first on PYTHONPATH, each side in a fresh temporary directory that
holds a copy of the config with `out_dir = out` appended, so both sides print
the same paths. Both sides inherit this process's environment: set
OPENBLAS_NUM_THREADS before running to compare at one BLAS thread count.
The exit code, stdout, stderr and the bytes of every file the run wrote are
compared. One line per config is printed; the exit code is 0 only if every
config is identical.

Without CONFIG, the configs under tools/identity/ are used. A config must not
set `out_dir`, and relative `dataset` paths would resolve in the temporary
directory, so IDX configs need absolute paths.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

USAGE = "usage: python tools/same_outputs.py OLD_SRC NEW_SRC [CONFIG ...]"
DEFAULT_CONFIGS = sorted((Path(__file__).parent / "identity").glob("*.txt"))


def run_side(src: Path, config_text: str) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """(streams, files) of one `rec run`: the exit code, stdout and stderr, and
    every file the run left in its directory, by relative path."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.txt").write_text(config_text + "out_dir = out\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src.resolve()), env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "rec.cli", "run", "config.txt"],
                              cwd=root, env=env, capture_output=True)
        streams = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
                   "stderr": done.stderr}
        files = {p.relative_to(root).as_posix(): p.read_bytes()
                 for p in sorted(root.rglob("*")) if p.is_file()}
    return streams, files


def compare(old_src: Path, new_src: Path, config: Path) -> tuple[list[str], str]:
    """What differs between the two trees' runs of `config` (empty if nothing),
    and a summary of the old side's run."""
    text = config.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        text += "\n"
    old_streams, old_files = run_side(old_src, text)
    new_streams, new_files = run_side(new_src, text)
    diffs = [name for name in old_streams if old_streams[name] != new_streams[name]]
    for path in sorted(old_files.keys() | new_files.keys()):
        if path not in new_files:
            diffs.append(f"{path} (only old)")
        elif path not in old_files:
            diffs.append(f"{path} (only new)")
        elif old_files[path] != new_files[path]:
            diffs.append(path)
    return diffs, f"exit {old_streams['exit code'].decode()}, {len(old_files)} files"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(USAGE, file=sys.stderr)
        return 2
    old_src, new_src = Path(argv[0]), Path(argv[1])
    configs = [Path(c) for c in argv[2:]] or DEFAULT_CONFIGS
    for src in (old_src, new_src):
        if not (src / "rec" / "cli.py").is_file():
            print(f"error: {src} holds no rec package", file=sys.stderr)
            return 2
    for config in configs:
        if not config.is_file():
            print(f"error: config file not found: {config}", file=sys.stderr)
            return 2
        if any(line.split("#", 1)[0].split("=", 1)[0].strip() == "out_dir"
               for line in config.read_text(encoding="utf-8").splitlines()):
            print(f"error: {config} sets out_dir; this tool sets it", file=sys.stderr)
            return 2
    failed = 0
    for config in configs:
        diffs, summary = compare(old_src, new_src, config)
        print(f"differs: {config}: {', '.join(diffs)}" if diffs
              else f"identical: {config} ({summary})", flush=True)
        failed += bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
