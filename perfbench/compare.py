#!/usr/bin/env python3
"""Compare result sets of the multipath benchmark.

    python3 perfbench/compare.py BASE NEW     # diff two result sets
    python3 perfbench/compare.py --spread DIR # run-to-run spread of one set
    python3 perfbench/compare.py --selftest   # delay one layer, expect it named

A result set is a directory of the records run.py writes (pass --out DIR
to run.py to give each set its own directory). Records are grouped by
workload and trace flag. For every metric the diff prints both medians
and the change. An end-to-end metric is flagged when it got worse by more
than its bound in BENCHMARK.json; a per-layer metric is flagged when its
median moved, either way, by more than 5% or the quartile
spread of the base set, whichever is wider. Busy times are also compared
as a share of the rest of their own run, which host speed drifting
between runs does not move; that list names the layer that changed.
Records of the same workload and seed must carry the same digest of
simulated statistics.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")

# A per-layer metric counts as moved only past this share of its base
# median, however tight the base set's spread.
LAYER_BOUND = 0.05

# The self-test: certify's verify layer takes about half of each round,
# so host speed drifting between runs moves it no more than its
# neighbour construct; a layer filling most of a round could not be
# told apart from drift.
SELFTEST = dict(workload="certify", layer="verify", seconds=8, reps=6)


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    return e2e, layer


def load_set(path):
    groups = {}
    for p in sorted(glob.glob(os.path.join(path, "**", "*.json"), recursive=True)):
        with open(p) as f:
            rec = json.load(f)
        key = (rec["env"]["workload"], rec["env"]["trace"])
        groups.setdefault(key, []).append(rec)
    return groups


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def spread(xs):
    """Distance between the first and third quartile, as a share of the
    median (0 for fewer than two values or a zero median)."""
    if len(xs) < 2:
        return 0.0
    med = statistics.median(xs)
    if med == 0:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / abs(med)


def relative_busy(recs):
    """Each layer's busy time over the rest of its run's busy time, per run,
    for layers holding at least 1% of the run. Host speed drifts by 10% and
    more between runs but moves every layer of one run alike; the ratio
    keeps what moved one layer against the others."""
    out = {}
    for r in recs:
        busy = {m: v["value"] for m, v in r["result"]["metrics"].items() if busy_metric(m)}
        total = sum(busy.values())
        for m, v in busy.items():
            if v >= 0.01 * total and total > v:
                out.setdefault(m, []).append(v / (total - v))
    return out


def compare(base, new, out=sys.stdout):
    """Print the diff. Return, per workload, the per-layer metrics that
    moved and the busy times that shifted against the rest of the run,
    and the list of end-to-end regressions."""
    e2e, layer = load_spec()
    moved, shifted, regressions = {}, {}, []
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b, n = base[key], new[key]
        print(f"== {workload} (trace {trace}): {len(b)} base runs, {len(n)} new runs", file=out)
        digests = {}
        for side, recs in (("base", b), ("new", n)):
            for r in recs:
                digests.setdefault(r["env"]["seed"], set()).add(r["digest"])
        diverged = sorted(s for s, d in digests.items() if len(d) > 1)
        print("   simulated statistics: " +
              (f"DIFFER on seeds {diverged}" if diverged else "identical on every shared seed"), file=out)
        names = sorted(set().union(*(r["result"]["metrics"] for r in b + n)))
        flagged = []
        for m in names:
            bv, nv = values(b, m), values(n, m)
            if not bv or not nv:
                continue
            mb, mn = statistics.median(bv), statistics.median(nv)
            if mb == 0 and mn == 0:
                continue
            change = (mn - mb) / abs(mb) if mb else float("inf")
            noise = max(spread(bv), spread(nv))
            verdict = ""
            if m in e2e:
                bound = e2e[m]["bound"]
                worse = change if e2e[m]["better"] == "lower" else -change
                if noise > bound:
                    verdict = "unresolved (spread above bound)"
                elif worse > bound:
                    verdict = "REGRESSION"
                    regressions.append((workload, m, change))
                elif -worse > bound:
                    verdict = "improved"
            elif m in layer:
                threshold = max(LAYER_BOUND, spread(bv))
                if abs(change) > threshold:
                    verdict = "moved"
                    flagged.append((abs(change) / threshold, m, change, mb))
            print(f"   {m:36s} {mb:14.6g} -> {mn:14.6g} {change:+8.2%}  {verdict}", file=out)
        flagged.sort(reverse=True)
        moved[workload] = [(m, change, mb) for _, m, change, mb in flagged]
        if flagged:
            print(f"   per-layer metrics moved beyond bounds on {workload}:", file=out)
            for score, m, change, _ in flagged:
                print(f"     {m:36s} {change:+8.2%} ({score:.1f}x its threshold)", file=out)
        rb, rn = relative_busy(b), relative_busy(n)
        shifts = []
        for m in sorted(set(rb) & set(rn)):
            change = statistics.median(rn[m]) / statistics.median(rb[m]) - 1
            if abs(change) > max(LAYER_BOUND, spread(rb[m])):
                shifts.append((change, m))
        shifted[workload] = sorted(shifts, reverse=True)
        if shifts:
            print(f"   busy times shifted against the rest of the run on {workload}:", file=out)
            for change, m in shifted[workload]:
                print(f"     {m:36s} {change:+8.2%}", file=out)
    return moved, shifted, regressions


def busy_metric(name):
    return name.endswith(".busy_s") or name == "obsv.summarize_s"


def selftest(workload, layer, seconds, reps):
    """Run the workload traced, reps times plain and reps times with every
    call into layer slowed by 10%, alternating; the compare must name
    layer's busy time as the one that rose most against the rest of the
    run."""
    root = os.path.join(os.getcwd(), ".bench_build", "selftest")
    for i in range(reps):
        sides = [("base", []), ("delayed", ["--delay-layer", layer])]
        for side, extra in sides if i % 2 == 0 else sides[::-1]:
            out = os.path.join(root, side, str(i))
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", str(seconds), "--trace", "1", "--out", out] + extra
            print("selftest:", " ".join(cmd[1:]), file=sys.stderr)
            if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
                print("selftest: run failed", file=sys.stderr)
                return 1
    _, shifted, _ = compare(load_set(os.path.join(root, "base")), load_set(os.path.join(root, "delayed")))
    rose = [m for change, m in shifted.get(workload, []) if change > 0]
    want = f"{layer}.busy_s"
    ok = rose[:1] == [want]
    print(f"selftest: busy times that rose against the rest of the run: {rose or 'none'}; "
          f"expected {want} first: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="*", help="BASE NEW, or one set with --spread")
    ap.add_argument("--spread", action="store_true", help="print each metric's quartile spread")
    ap.add_argument("--selftest", action="store_true", help="check that a delayed layer is named")
    args = ap.parse_args()
    if args.selftest:
        return selftest(**SELFTEST)
    if args.spread and len(args.sets) == 1:
        e2e, _ = load_spec()
        for (workload, trace), recs in sorted(load_set(args.sets[0]).items()):
            print(f"== {workload} (trace {trace}): {len(recs)} runs, "
                  f"{len(set(r['digest'] for r in recs))} distinct digests")
            for m in sorted(set().union(*(r["result"]["metrics"] for r in recs))):
                xs = values(recs, m)
                s = spread(xs)
                note = ""
                if m in e2e:
                    note = f"bound {e2e[m]['bound']}" + (" OVER A THIRD" if s > e2e[m]["bound"] / 3 else "")
                print(f"   {m:36s} median {statistics.median(xs):14.6g} spread {s:7.2%} {note}")
        return 0
    if len(args.sets) != 2:
        ap.error("give BASE and NEW result directories")
    _, _, regressions = compare(load_set(args.sets[0]), load_set(args.sets[1]))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
