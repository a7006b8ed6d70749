#!/usr/bin/env python3
"""Compares the replay benchmark of a base revision against this checkout.

    python3 tools/ab_compare.py --base REV [--workloads W,...] [--pairs N]
                                [--seconds S] [--seed N] [--trace 0|1]

Run from anywhere inside the repository. The base side is REV's committed
files (`git archive`); the change side is this checkout as it stands, its
tracked and untracked, non-ignored files. Edits made to the checkout after
the script starts do not reach the comparison.

Both sides are built, one after the other, from the same source directory,
`<work>/src`, into the same target directory, `<work>/target` (the work
directory defaults to `.ab_build/` at the repository root). Cargo hashes
each path dependency's location into its crates' metadata, and so into
symbol names and the linked code layout: two trees at different paths,
even paths of equal length, build different binaries from identical code,
and have read several percent apart. Built at one path, the sides differ
only by their code. Each side's `leap-perfbench` binary (and its
`stage-timing` build when `--trace 1`) is copied out to
`<work>/bin/base-<commit>/` or `<work>/bin/head-<stamp>/`, where the stamp
hashes HEAD, the tracked changes against it and the untracked files; both
carry 12 hex digits, and a side whose binaries are already there is not
rebuilt. The copies run with the arguments `perfbench/run.py` passes its
binary, and they are built with the commands it uses.

For every workload the script runs N pairs, alternating which side goes
first, and prints, per metric, each side's median and quartiles, the
change in the median, and how many pairs the change won (for metrics whose
better direction `BENCHMARK.json` declares). It also prints the failed
replays of each side. The exit status is 1 when any `sim_*` metric differs
between any two runs of a workload (simulated results must not depend on
the code's speed), 2 when a run gave no result, 3 when a side failed to
build, and 0 otherwise.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

WORKLOADS = ["apps", "stream", "apps-dvmm", "tenants-storm"]
# `perfbench/run.py`'s limit on one run.
RUN_TIMEOUT_S = 170


def output(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          stdout=subprocess.PIPE).stdout


def git(root: Path, *args: str) -> str:
    return output(root, *args).decode().strip()


def unpack(root: Path, commit: str, dest: Path) -> None:
    """Writes `commit`'s committed files into `dest`."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", commit], cwd=root, stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        sys.exit(f"ab_compare: git archive {commit} failed")


def checkout_files(root: Path, work: Path, *which: str) -> list:
    """The checkout's files that `git ls-files` lists with the options
    `which`, outside `work` itself and still present on disk."""
    top = root.resolve()
    excludes = ([f":(exclude){work.resolve().relative_to(top)}"]
                if work.resolve().is_relative_to(top) else [])
    files = output(root, "ls-files", "-z", *which, "--", ".", *excludes)
    return [name for name in files.decode().split("\0")
            if name and ((root / name).is_symlink() or (root / name).is_file())]


def head_stamp(root: Path, work: Path) -> str:
    """A hash of HEAD, the tracked changes against it and the untracked,
    non-ignored files: an unchanged checkout keeps its stamp, a changed one
    gets a new one."""
    stamp = hashlib.sha256(output(root, "rev-parse", "HEAD"))
    stamp.update(output(root, "diff", "--binary", "HEAD"))
    for name in checkout_files(root, work, "--others", "--exclude-standard"):
        stamp.update(name.encode() + b"\0")
        stamp.update((root / name).read_bytes())
    return stamp.hexdigest()[:12]


def copy_checkout(root: Path, work: Path, dest: Path) -> None:
    """Copies the checkout as it stands, its tracked and untracked,
    non-ignored files, into `dest`."""
    for name in checkout_files(root, work, "--cached", "--others", "--exclude-standard"):
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(root / name, dest / name, follow_symlinks=False)


def binaries(bins: Path, trace: int) -> dict:
    """Where a side's copied binaries live: the default build, and the
    `stage-timing` one when the traced pass runs."""
    return {"timed": bins / "leap-perfbench",
            **({"traced": bins / "leap-perfbench-stage-timing"} if trace else {})}


def build_side(work: Path, bins: Path, populate, trace: int) -> dict:
    """The side's binaries, built unless already copied out.

    The side's files are written into the shared `<work>/src` and built
    from scratch into the shared `<work>/target`, as `perfbench/run.py`
    builds them; the binaries land beside `bins` and are renamed to it only
    once all are in, so an interrupted build is redone rather than reused.
    """
    wanted = binaries(bins, trace)
    if all(path.is_file() for path in wanted.values()):
        return wanted
    src, target = work / "src", work / "target"
    shutil.rmtree(src, ignore_errors=True)
    shutil.rmtree(target, ignore_errors=True)
    src.mkdir(parents=True)
    populate(src)
    partial = bins.with_name(bins.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    for kind, features, out in (("timed", [], target),
                                ("traced", ["--features", "stage-timing"],
                                 target / "stage-timing")):
        if kind not in wanted:
            continue
        command = [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(src / "perfbench" / "Cargo.toml"),
            "--target-dir", str(out),
        ] + features
        if subprocess.run(command, cwd=src, stdout=sys.stderr).returncode != 0:
            print(f"ab_compare: building {bins.name} failed", file=sys.stderr)
            sys.exit(3)
        shutil.copy2(out / "release" / "leap-perfbench", partial / wanted[kind].name)
    shutil.rmtree(bins, ignore_errors=True)
    partial.rename(bins)
    return wanted


def run_once(bins: dict, workload: str, args) -> dict:
    """One run of a side's binary with `perfbench/run.py`'s arguments, or a
    record of the failure."""
    binary = bins["traced" if args.trace else "timed"]
    command = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = binary.parent / "perfbench-spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans / f"{workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, cwd=binary.parent, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {RUN_TIMEOUT_S} s"}
    lines = run.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {run.returncode}, no result line"}


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
                        help="the shared build tree and the copied binaries, "
                             "relative to the repository root")
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or not workloads or args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        parser.error(f"need known workloads ({unknown or 'none given'}), "
                     "--pairs >= 1, --seconds >= 1 and --seed >= 0")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    work = root / args.work_dir
    commit = git(root, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    # The head side is built first, so edits to the checkout after the
    # script starts do not reach the comparison.
    sides = {
        "head": build_side(work, work / "bin" / f"head-{head_stamp(root, work)}",
                           lambda src: copy_checkout(root, work, src), args.trace),
        "base": build_side(work, work / "bin" / f"base-{commit[:12]}",
                           lambda src: unpack(root, commit, src), args.trace),
    }
    better = directions(root)
    identical, complete = True, True
    for workload in workloads:
        runs = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(sides[side], workload, args)
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
