#!/usr/bin/env python3
"""Interleaved parent/change runs of perfbench, collected in one BENCH file.

  python3 scripts/bench_pairs.py --parent REV --change REV \\
      --workload parallel_sweep --seed 707 --pairs 10 --out BENCH_9.json

The script refuses to run when ``perfbench/`` or ``BENCHMARK.json`` differ
between the two revisions, since the numbers would then come from different
benchmarks. Pair i runs ``perfbench/run.py --trace 0`` once on each side, the
parent first in odd pairs and the change first in even ones, and keeps each
side's full result record (``perfbench/out/result-<workload>-trace0.json``).
Before each run the side's temporary directory is removed and its revision
extracted afresh with ``git archive``, so no run finds the files or outputs
of an earlier one and both sides' files are equally new.

The output file has the layout what, parent, change, host, claim, summary,
runs. Given an existing --out, new runs are appended (pair numbers continue)
and the summary is recomputed over all runs; the file is rewritten after
every pair. The summary holds, per workload and seed and per end-to-end
metric of BENCHMARK.json, each side's median and quartiles, the ratio of
the medians, and in how many pairs the change was better (by the metric's
direction) or tied. Only the standard library is used.

  python3 scripts/bench_pairs.py --trajectory [DIR]

reads every BENCH_<n>.json in DIR (default: the current directory) in PR
number order and prints, per workload and end-to-end metric, each file's
parent and change medians. A file without the summary layout above is listed
as skipped.
"""

import argparse
import glob
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")


def git(*args, cwd=None):
    return subprocess.run(("git",) + args, cwd=cwd, check=True, capture_output=True).stdout


def extract(rev, dest, repo):
    """Write the files of rev into dest, as git archive gives them."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, cwd=repo))) as tar:
        tar.extractall(dest, filter="data")


def benchmark_differs(parent, change, repo):
    diff = subprocess.run(
        ("git", "diff", "--quiet", parent, change, "--", "perfbench", "BENCHMARK.json"),
        cwd=repo)
    return diff.returncode != 0


def run_side(root, workload, seed, seconds):
    """One perfbench run in root; returns its result record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(root, "perfbench", "out", f"result-{workload}-trace0.json")) as fh:
        return json.load(fh)


def quartiles(values):
    """(q1, median, q3); statistics.quantiles needs at least two values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs, better):
    """Per "workload/seed" key: the number of pairs and, for each metric of
    better (metric -> "higher" or "lower"), each side's median and quartiles,
    the ratio of the medians and the change's wins and ties over the pairs."""
    groups = {}
    for run in runs:
        key = f"{run['workload']}/{run['seed']}"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run["result"]
    summary = {}
    for key, pairs in sorted(groups.items()):
        complete = [p for _, p in sorted(pairs.items()) if all(s in p for s in SIDES)]
        entry = {"pairs": len(complete)}
        for metric, direction in better.items():
            values = {s: [p[s]["metrics"][metric] for p in complete] for s in SIDES}
            stats = {}
            for side in SIDES:
                q1, median, q3 = quartiles(values[side])
                stats.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
            sign = 1.0 if direction == "higher" else -1.0
            gaps = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            stats["median_ratio_change_over_parent"] = (
                stats["change_median"] / stats["parent_median"] if stats["parent_median"]
                else None)
            stats["change_better_pairs"] = sum(g > 0 for g in gaps)
            stats["ties"] = sum(g == 0 for g in gaps)
            entry[metric] = stats
        summary[key] = entry
    return summary


def trajectory(directory):
    """The lines that --trajectory prints for the BENCH files in directory."""
    paths = {}
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        number = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if number:
            paths[int(number.group(1))] = path
    lines, table = [], {}  # workload -> metric -> [(file, key, parent, change)]
    for number in sorted(paths):
        name = os.path.basename(paths[number])
        try:
            with open(paths[number]) as fh:
                summary = json.load(fh)["summary"]
            medians = [(key, metric, stats["parent_median"], stats["change_median"])
                       for key, entry in summary.items()
                       for metric, stats in entry.items() if metric != "pairs"]
        except (ValueError, KeyError, TypeError, AttributeError):
            lines.append(f"skipped {name}: no summary of parent and change medians")
            continue
        for key, metric, parent, change in medians:
            table.setdefault(key.split("/")[0], {}).setdefault(metric, []).append(
                (name, key, parent, change))
    for workload in sorted(table):
        lines.append(workload)
        for metric, rows in table[workload].items():
            lines.append(f"  {metric}")
            lines.extend(f"    {name:<14} {key:<22} parent {parent:<12.6g} change {change:.6g}"
                         for name, key, parent, change in rows)
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trajectory", nargs="?", const=".", metavar="DIR",
                   help="print the medians of every BENCH_<n>.json in DIR (default: .) and exit")
    p.add_argument("--parent", help="revision of the parent")
    p.add_argument("--change", help="revision of the change")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs", type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", help="BENCH_<n>.json to write or extend")
    p.add_argument("--what", default="", help="what the runs measure (new file only)")
    p.add_argument("--host", default="", help="host description (new file only)")
    p.add_argument("--claim", default="", help="the claimed effect (new file only)")
    args = p.parse_args(argv)
    missing = [f"--{name}" for name in ("parent", "change", "workload", "seed", "pairs", "out")
               if getattr(args, name) is None]
    if args.trajectory is None and missing:
        p.error(f"the following arguments are required: {', '.join(missing)}")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.trajectory is not None:
        print("\n".join(trajectory(args.trajectory)))
        return 0
    if args.pairs < 1:
        print("error: --pairs must be >= 1", file=sys.stderr)
        return 2
    repo = git("rev-parse", "--show-toplevel").decode().strip()
    parent = git("rev-parse", "--short", args.parent, cwd=repo).decode().strip()
    change = git("rev-parse", "--short", args.change, cwd=repo).decode().strip()
    if benchmark_differs(parent, change, repo):
        print(f"error: perfbench/ or BENCHMARK.json differ between {parent} and {change}",
              file=sys.stderr)
        return 2
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
        if (bench["parent"], bench["change"]) != (parent, change):
            print(f"error: {args.out} holds runs of {bench['parent']} and {bench['change']}",
                  file=sys.stderr)
            return 2
    else:
        bench = {"what": args.what, "parent": parent, "change": change, "host": args.host,
                 "claim": args.claim, "summary": {}, "runs": []}
    with open(os.path.join(repo, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    done = [r["pair"] for r in bench["runs"]
            if (r["workload"], r["seed"]) == (args.workload, args.seed)]
    first_pair = max(done, default=0) + 1

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        revs = dict(zip(SIDES, (parent, change)))
        for pair in range(first_pair, first_pair + args.pairs):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                root = os.path.join(tmp, side)
                shutil.rmtree(root, ignore_errors=True)
                extract(revs[side], root, repo)
                result = run_side(root, args.workload, args.seed, args.seconds)
                bench["runs"].append({
                    "workload": args.workload, "seed": args.seed, "pair": pair,
                    "side": side, "ran_first": side == order[0], "result": result,
                })
                print(f"pair {pair} {side}: steps_per_s "
                      f"{result['metrics']['steps_per_s']:.6g}", flush=True)
            bench["summary"] = summarize(bench["runs"], better)
            with open(args.out, "w") as fh:
                json.dump(bench, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
