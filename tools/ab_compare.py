#!/usr/bin/env python3
"""Compares the replay benchmark of a base revision against this checkout.

    python3 tools/ab_compare.py --base REV [--workloads W,...] [--pairs N]
                                [--seconds S] [--seed N] [--trace 0|1]

Run from anywhere inside the repository. The base side is REV's committed
files, unpacked with `git archive` into `<work>/base-<commit>/src` (the work
directory defaults to `.ab_build/` at the repository root). The change side
is this checkout as it stands, its tracked and untracked, non-ignored files
copied once into `<work>/head-<stamp>/src`, where the stamp hashes HEAD, the
tracked changes against it and the untracked files. Both names carry 12 hex
digits, so the two sides build from paths of equal length, each into the
`target/` beside its `src/`, and run their own `perfbench/run.py`. Edits
made to the checkout after the copy do not reach the comparison.

For every workload the script runs N pairs, alternating which side goes
first, and prints, per metric, each side's median and quartiles, the
change in the median, and how many pairs the change won (for metrics whose
better direction `BENCHMARK.json` declares). It also prints the failed
replays of each side. The exit status is 1 when any `sim_*` metric differs
between any two runs of a workload (simulated results must not depend on
the code's speed), 2 when a run gave no result, and 0 otherwise.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

WORKLOADS = ["apps", "stream", "apps-dvmm", "tenants-storm"]


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def unpack(root: Path, rev: str, work: Path) -> Path:
    """REV's committed files under `work`, unpacked once per commit.

    The files are unpacked beside the tree's `src/` and renamed to it only
    once the whole archive is in, so an interrupted unpack is redone rather
    than reused.
    """
    commit = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = work / f"base-{commit[:12]}"
    src = tree / "src"
    if not src.is_dir():
        partial = tree / "src.partial"
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.Popen(
            ["git", "archive", "--format=tar", commit], cwd=root, stdout=subprocess.PIPE
        )
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(partial, filter="data")
        if archive.wait() != 0:
            sys.exit(f"ab_compare: git archive {rev} failed")
        partial.rename(src)
    return tree


def snapshot(root: Path, work: Path) -> Path:
    """The checkout as it stands under `work`, copied once per content.

    The copy holds every tracked file still present and every untracked,
    non-ignored one, outside `work` itself. Its directory is named after a
    hash of HEAD, the tracked changes against it and the untracked files,
    so an unchanged checkout reuses its copy and a changed one gets a new
    one. Like `unpack`, the files land beside `src/` and are renamed to it
    once complete.
    """
    def output(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=root, check=True,
                              stdout=subprocess.PIPE).stdout

    top = root.resolve()
    excludes = ([f":(exclude){work.resolve().relative_to(top)}"]
                if work.resolve().is_relative_to(top) else [])
    stamp = hashlib.sha256(output("rev-parse", "HEAD"))
    stamp.update(output("diff", "--binary", "HEAD"))
    untracked = output("ls-files", "-z", "--others", "--exclude-standard", "--", ".", *excludes)
    for name in filter(None, untracked.decode().split("\0")):
        stamp.update(name.encode() + b"\0")
        stamp.update((root / name).read_bytes())
    tree = work / f"head-{stamp.hexdigest()[:12]}"
    src = tree / "src"
    if not src.is_dir():
        partial = tree / "src.partial"
        shutil.rmtree(partial, ignore_errors=True)
        files = output("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                       "--", ".", *excludes)
        for name in filter(None, files.decode().split("\0")):
            source = root / name
            if source.is_symlink() or source.is_file():
                (partial / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, partial / name, follow_symlinks=False)
        partial.rename(src)
    return tree


def run_once(tree: Path, target: Path, workload: str, args) -> dict:
    """One `perfbench/run.py` result, or a record of the failure."""
    command = [
        sys.executable, str(tree / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    run = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"run.py exit {run.returncode}, no result line"}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def directions(root: Path) -> dict:
    """Each declared metric's better direction, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["better"]
        for section in ("end_to_end", "per_layer")
        for metric in spec.get(section, [])
    }


def report(workload: str, runs: dict, better: dict) -> bool:
    """Prints one workload's comparison; False when a sim_* value differs."""
    base, head = runs["base"], runs["head"]
    pairs = [(b, h) for b, h in zip(base, head) if "metrics" in b and "metrics" in h]
    print(f"\n== {workload}: {len(pairs)} complete pairs")
    for side in ("base", "head"):
        failed = sum(r.get("failed", 0) for r in runs[side] if "metrics" in r)
        attempted = sum(r.get("attempted", 0) for r in runs[side] if "metrics" in r)
        errors = [r["error"] for r in runs[side] if "error" in r]
        print(f"   {side}: {failed} failed of {attempted} replays"
              + (f"; {len(errors)} runs without a result: {errors}" if errors else ""))
    if not pairs:
        return True
    identical = True
    names = [n for n in pairs[0][0]["metrics"] if all(n in h["metrics"] for _, h in pairs)]
    print(f"   {'metric':<40} {'base median [q1, q3]':>34} {'head median [q1, q3]':>34}"
          f" {'change':>8} {'wins':>6}")
    for name in names:
        b = [p[0]["metrics"][name]["value"] for p in pairs]
        h = [p[1]["metrics"][name]["value"] for p in pairs]
        bq, hq = quartiles(b), quartiles(h)
        change = (hq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
        wins = ""
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            wins = f"{sum(sign * (y - x) > 0 for x, y in zip(b, h))}/{len(pairs)}"
        note = ""
        if name.startswith("sim_") and len(set(b + h)) > 1:
            identical = False
            note = "  SIM VALUES DIFFER"
        print(f"   {name:<40} {bq[1]:>14.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
              f"{'':>2}{hq[1]:>14.6g} [{hq[0]:.6g}, {hq[2]:.6g}]"
              f" {change:>+7.1f}% {wins:>6}{note}")
    return identical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all four)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--work-dir", default=".ab_build",
                        help="base checkouts and builds, relative to the repository root")
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or not workloads or args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        parser.error(f"need known workloads ({unknown or 'none given'}), "
                     "--pairs >= 1, --seconds >= 1 and --seed >= 0")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    work = root / args.work_dir
    sides = {
        side: (tree / "src", tree / "target")
        for side, tree in (("base", unpack(root, args.base, work)),
                           ("head", snapshot(root, work)))
    }
    better = directions(root)
    identical, complete = True, True
    for workload in workloads:
        runs = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                tree, target = sides[side]
                result = run_once(tree, target, workload, args)
                complete &= "metrics" in result
                runs[side].append(result)
            print(f"{workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        identical &= report(workload, runs, better)
    if not identical:
        print("\nab_compare: sim_* values differ between runs", file=sys.stderr)
        return 1
    if not complete:
        print("\nab_compare: some runs gave no result", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
