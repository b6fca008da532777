#!/usr/bin/env python3
"""Paired A/B of two revisions on the irmcbench workloads.

    python3 tools/bench_ab.py BASE CHANGE --seeds 2000-2009 --seconds 8

BASE and CHANGE are git revisions of this repository (anything `git
archive` takes), or WORKTREE for the files of this checkout as they are
now (tracked and untracked, minus what .gitignore lists). Each is
extracted into its own temporary tree, and every run goes through that
tree's own irmcbench/run.py, which builds its benchmark on first use. For
each workload the script runs one pair per seed, alternating the order
(base first, then change first, ...), so drift in core speed hits both
sides alike.

For every metric it prints the median and quartiles of each side, the
median of the per-pair change/base ratios with their range, and the wins:
pairs where the change is better, in the direction BENCHMARK.json gives.
`gain/IQR` is the distance between the two medians over the base's
interquartile range. It only reads irmcbench's output. Exit status: 0 when
every run passed its correctness gate, 1 otherwise.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, **kw).stdout


def extract(rev, dest):
    """Writes the files of `rev` (or of the checkout) under `dest`."""
    os.makedirs(dest)
    if rev != WORKTREE:
        data = git("archive", "--format=tar", rev)
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(dest)
        return
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").split(b"\0")
    for rel in filter(None, (p.decode() for p in listed)):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue  # deleted in the checkout
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(tree, workload, seed, seconds, trace):
    """One run.py call: (passed, {metric: value})."""
    cmd = [sys.executable, os.path.join(tree, "irmcbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return False, {}
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return proc.returncode == 0 and bool(result["correct"]), values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return "%.4g" % x


def report(workload, pairs, better):
    """Prints one workload's table from [(base, change)] metric dicts."""
    print("== %s: %d pairs" % (workload, len(pairs)))
    print("%-34s %-28s %-28s %7s %-15s %5s %8s" %
          ("metric", "base median [q1-q3]", "change median [q1-q3]",
           "ratio", "pair ratios", "wins", "gain/IQR"))
    names = sorted(set.intersection(*[set(b) & set(c) for b, c in pairs]))
    for name in names:
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        bq, cq = quartiles(base), quartiles(change)
        ratios = [c / b for b, c in zip(base, change) if b != 0]
        sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        ties = sum(1 for b, c in zip(base, change) if c == b)
        iqr = bq[2] - bq[0]
        gain = (cq[1] - bq[1]) / iqr if iqr > 0 else float("nan")
        span = ("%.3f-%.3f" % (min(ratios), max(ratios))) if ratios else "-"
        print("%-34s %-28s %-28s %7s %-15s %5s %8s" % (
            name,
            "%s [%s-%s]" % (fmt(bq[1]), fmt(bq[0]), fmt(bq[2])),
            "%s [%s-%s]" % (fmt(cq[1]), fmt(cq[0]), fmt(cq[2])),
            "x%.3f" % statistics.median(ratios) if ratios else "-",
            span,
            "=" if ties == len(pairs) else
            ("%d/%d" % (wins, len(pairs)) if sign else "-"),
            "%.2f" % gain if sign else "-"))
        if ratios and ties < len(pairs):
            print("    pair ratios: " +
                  " ".join("%.3f" % r for r in ratios))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision, or WORKTREE")
    ap.add_argument("change", help="git revision, or WORKTREE")
    ap.add_argument("--workloads", default="load_vct,load_flit,single_sweep")
    ap.add_argument("--seeds", required=True,
                    help="one pair per seed, e.g. 2000-2009 or 3,5,7")
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", help="where the two trees go (default: a "
                    "temporary directory, removed afterwards)")
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = parse_seeds(args.seeds)
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_ab.")
    trees = {}
    for side, rev in (("base", args.base), ("change", args.change)):
        trees[side] = os.path.join(workdir, side)
        extract(rev, trees[side])

    all_ok = True
    record = {}
    try:
        for workload in args.workloads.split(","):
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else \
                        ("change", "base")
                got = {}
                for side in order:
                    ok, values = run(trees[side], workload, seed,
                                     args.seconds, args.trace)
                    if not ok:
                        print("bench_ab: %s run failed (%s, seed %d)" %
                              (side, workload, seed), file=sys.stderr)
                        all_ok = False
                    got[side] = values
                print("bench_ab: %s seed %d done (%s first)" %
                      (workload, seed, order[0]), file=sys.stderr)
                pairs.append((got["base"], got["change"]))
            record[workload] = [{"seed": s, "base": b, "change": c}
                                for s, (b, c) in zip(seeds, pairs)]
            if all(b and c for b, c in pairs):
                report(workload, pairs, better)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
