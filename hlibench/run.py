#!/usr/bin/env python3
"""Build and run hlibench from the root of a checkout.

    python3 hlibench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 hlibench/run.py steady [--runs N] [--seconds S] [--first-seed N]
    python3 hlibench/run.py --test        # the benchmark's own tests

The script first mirrors the repository's workspace (the root Cargo.toml
and crates/) into hlibench/.workspace, keeping file times, and then hands
over to cargo. Cargo hashes the absolute path of a path dependency that
lies outside the building workspace into every symbol of that crate, and
the hash moves code: two copies of the same source in two directories
linked `core::str::from_utf8`, the routine behind serve_edit's JSON
parsing, at different offsets within a cache line, and their serve_edit
figures differed by up to 1.6x. Inside hlibench/ the crates are hashed by
their relative path, so every checkout of one commit builds the same
binary.
"""

import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIRROR = BENCH / ".workspace"


def same(src: Path, dst: Path) -> bool:
    try:
        a, b = src.stat(), dst.stat()
    except FileNotFoundError:
        return False
    return a.st_size == b.st_size and a.st_mtime_ns == b.st_mtime_ns


def mirror() -> None:
    """Make MIRROR hold exactly ROOT's Cargo.toml and crates/ (no target/)."""
    wanted = {Path("Cargo.toml")}
    for dirpath, dirnames, filenames in os.walk(ROOT / "crates"):
        dirnames[:] = sorted(d for d in dirnames if d != "target")
        rel = Path(dirpath).relative_to(ROOT)
        wanted.update(rel / f for f in filenames)
    for rel in sorted(wanted):
        src, dst = ROOT / rel, MIRROR / rel
        if not same(src, dst):
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    for dirpath, _, filenames in os.walk(MIRROR, topdown=False):
        for f in filenames:
            p = Path(dirpath) / f
            if p.relative_to(MIRROR) not in wanted:
                p.unlink()
        if Path(dirpath) != MIRROR and not any(Path(dirpath).iterdir()):
            Path(dirpath).rmdir()


def main() -> None:
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit(f"hlibench: no workspace to build at {ROOT} (Cargo.toml and crates/ are missing)")
    mirror()
    manifest = str(BENCH / "Cargo.toml")
    args = sys.argv[1:]
    if args == ["--test"]:
        cmd = ["cargo", "test", "--release", "--offline", "--manifest-path", manifest]
    else:
        cmd = ["cargo", "run", "--release", "--quiet", "--offline", "--manifest-path", manifest, "--"]
        cmd += args
    os.execvp(cmd[0], cmd)


if __name__ == "__main__":
    main()
