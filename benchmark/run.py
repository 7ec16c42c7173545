#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds, with cargo offline and in
release mode, the repository's `yf-serve` and `yf-fleet-worker`
binaries and this directory's `yf-benchmark` package into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs `yf-benchmark`
with the given arguments. Build output goes to stderr; the last line of
stdout is the run's JSON result. Exits non-zero when the build fails or
an output check fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(target: Path) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--offline", "--release", "--manifest-path",
         str(ROOT / "Cargo.toml"), "--bin", "yf-serve", "--bin", "yf-fleet-worker"],
        ["cargo", "build", "--offline", "--release", "--manifest-path",
         str(HERE / "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def code_id() -> str:
    """The git commit when there is one, and a digest of the sources."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", *sorted((ROOT / "crates").rglob("*.rs")),
             *sorted((ROOT / "crates").rglob("Cargo.toml")), *sorted((HERE / "src").rglob("*.rs"))]
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    return f"{commit}/src-{digest.hexdigest()[:12]}"


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    build(target)
    release = target / "release"
    cmd = [
        str(release / "yf-benchmark"), *sys.argv[1:],
        "--serve-bin", str(release / "yf-serve"),
        "--worker-bin", str(release / "yf-fleet-worker"),
        "--out-dir", str(ROOT / ".bench_out"),
        "--commit", code_id(),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
