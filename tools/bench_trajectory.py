#!/usr/bin/env python3
"""Write one point of the benchmark trajectory: the end-to-end metrics of
one revision beside those of another, by default HEAD beside its parent
HEAD^, measured in alternating runs.

    python3 tools/bench_trajectory.py --out BENCH_<n>.json [--base REV] [--head REV]
        [tables:10 enumerate:5 ...]

``--head`` is the revision measured (the file's ``commit``) and ``--base``
the one it is measured against (its ``parent``; by default the head's
parent), so that a change of several commits can be measured against the
commit it started from.

Each workload argument is ``NAME`` or ``NAME:N``, for seeds 1..N (at least
3; 3 when N is left out); the default is every workload at 3 seeds.  Each
side is its commit's files, exported with ``git archive`` into a temporary
directory, so that the working tree's edits and leftovers are not measured.
For every workload and seed ``perfbench/run.py --trace 0`` runs once on
each side, unmodified, for the run length ``run_seconds`` that
``BENCHMARK.json`` fixes.  The sides alternate, and the side that goes first
flips from pair to pair, so that a change in the machine's load falls on
both.

The file records the two commits, the machine, the seeds and the run
length, every run's metrics, and per workload and side the median and
interquartile range of every end-to-end metric, with the number of pairs in
which the commit's reading was the better one.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("enumerate", "tables", "calculator")
MIN_SEEDS = 3


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> str:
    """The files of ``rev`` under ``into``; returns the full commit id."""
    try:
        sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    except subprocess.CalledProcessError:
        sys.exit(f"not a commit: {rev!r}")
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return sha


def workload_spec(text: str) -> tuple[str, int]:
    name, _, n = text.partition(":")
    if name not in WORKLOADS:
        raise argparse.ArgumentTypeError(f"unknown workload {name!r}: one of {', '.join(WORKLOADS)}")
    try:
        seeds = int(n) if n else MIN_SEEDS
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed count {n!r}") from None
    if seeds < MIN_SEEDS:
        raise argparse.ArgumentTypeError(f"{name}: at least {MIN_SEEDS} seeds, not {seeds}")
    return name, seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The last line of one ``perfbench/run.py`` run, as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--base", metavar="REV", help="the revision measured against (default: the head's parent)")
    parser.add_argument("--head", metavar="REV", default="HEAD", help="the revision measured (default HEAD)")
    parser.add_argument("workloads", nargs="*", type=workload_spec, metavar="NAME[:N]")
    args = parser.parse_args(argv)
    plan = args.workloads or [(w, MIN_SEEDS) for w in WORKLOADS]

    with tempfile.TemporaryDirectory(prefix="bench-trajectory-") as tmp:
        sides = {"commit": Path(tmp, "commit"), "parent": Path(tmp, "parent")}
        commit = export(args.head, sides["commit"])
        parent = export(args.base or f"{commit}^", sides["parent"])
        declared = json.loads((sides["commit"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in declared["end_to_end"]}
        seconds = declared["run_seconds"]
        out = {
            "commit": commit,
            "parent": parent,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "machine": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            },
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "seconds": seconds,
            "workloads": {},
        }
        for workload, n in plan:
            seeds = list(range(1, n + 1))
            runs: dict[str, list[dict]] = {"commit": [], "parent": []}
            for seed in seeds:
                order = ("commit", "parent") if seed % 2 else ("parent", "commit")
                for side in order:
                    print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                    runs[side].append(run_once(sides[side], workload, seed, seconds))
            metrics = {}
            for name, direction in better.items():
                values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
                sign = 1 if direction == "lower" else -1
                metrics[name] = {
                    "better": direction,
                    "commit": summary(values["commit"]),
                    "parent": summary(values["parent"]),
                    "commit_better_pairs": sum(
                        sign * (c - p) < 0 for c, p in zip(values["commit"], values["parent"])
                    ),
                }
            out["workloads"][workload] = {
                "seeds": seeds,
                "metrics": metrics,
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
                "runs": {s: [{k: v["value"] for k, v in r["metrics"].items()} for r in runs[s]] for s in runs},
            }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
