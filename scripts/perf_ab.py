#!/usr/bin/env python3
"""Same-runner A/B of the end-to-end benchmark between two revisions.

    python3 scripts/perf_ab.py BASE_REV
    python3 scripts/perf_ab.py --selftest

Checks BASE_REV and HEAD out into git worktrees under ``.perf_ab/``
(kept, with their builds, for the next call; uncommitted changes are
not measured) and runs each side's own ``BENCHMARK.json`` command
(``perfbench/run.py``) on this machine. For every workload, round
r = 1..ROUNDS runs ``--seed r`` on both sides, the base first on even
rounds, a ``--trace 0`` pair (end-to-end metrics) and then a
``--trace 1`` pair (per-layer metrics), ``run_seconds`` each.

Every run is printed as it arrives; the report gives per metric the
medians, their ratio, a seeded bootstrap 95% CI of the ratio (rounds
resampled as pairs) and the base's quartile spread (IQR / median).
"moved": the CI excludes 1.0. "unresolved": an end-to-end metric's
base spread exceeds its bound, so the runs cannot resolve a change of
that size (unless every branch run beats every base run).

Exits 1 when, on any workload, an end-to-end metric's branch median
is worse than the base's by more than its bound (relative, in its
"better" direction), the branch's failed/attempted fraction exceeds
the base's, or a branch run is incorrect or gives no result.
Per-layer metrics only report.
"""

import json
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 10
BOOTSTRAP_SAMPLES = 2000
BOOTSTRAP_SEED = 1
SIDES = ("base", "branch")


# ------------------------------------------------------------ statistics

def quantile(xs, q):
    """Linearly interpolated quantile of a non-empty sample."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    if s[hi] == s[lo]:  # inf - inf would give nan (a count rising from 0)
        return s[lo]
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(xs):
    return quantile(xs, 0.5)


def spread(xs):
    """Quartile spread, (Q3 - Q1) / median; 0 for a zero median."""
    m = median(xs)
    if m == 0:
        return 0.0
    return (quantile(xs, 0.75) - quantile(xs, 0.25)) / abs(m)


def ratio(base, branch):
    """Branch median over base median (1.0 when both are zero)."""
    mb, mn = median(base), median(branch)
    if mb == 0:
        return 1.0 if mn == 0 else float("inf")
    return mn / mb


def bootstrap_ci(base, branch, samples=BOOTSTRAP_SAMPLES,
                 seed=BOOTSTRAP_SEED):
    """95% CI of ratio(base, branch), resampling rounds as pairs."""
    rng = random.Random(seed)
    n = len(base)
    stats = []
    for _ in range(samples):
        idx = [rng.randrange(n) for _ in range(n)]
        stats.append(ratio([base[i] for i in idx],
                           [branch[i] for i in idx]))
    return quantile(stats, 0.025), quantile(stats, 0.975)


def worse_by(base_med, branch_med, better):
    """How much worse the branch is, relative to the base (<= 0: not)."""
    delta = (base_med - branch_med if better == "higher"
             else branch_med - base_med)
    if base_med == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(base_med)


# ------------------------------------------------------------- schedule

def schedule(rounds):
    """Every run of one workload, in order: (round, trace, side)."""
    runs = []
    for r in range(1, rounds + 1):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for trace in (0, 1):
            for side in order:
                runs.append((r, trace, side))
    return runs


# --------------------------------------------------------------- report

def fraction(results):
    attempted = sum(x["attempted"] for x in results)
    failed = sum(x["failed"] for x in results)
    return failed, attempted, (failed / attempted if attempted else 0.0)


def pairs(records, trace, name):
    """Per-round (base, branch) values of metric @p name, round order."""
    by = {}
    for rec in records:
        if rec["trace"] == trace and rec["result"] is not None:
            value = rec["result"]["metrics"].get(name)
            if value is not None:
                by[(rec["round"], rec["side"])] = value
    rounds = sorted({r for r, _ in by})
    rounds = [r for r in rounds if (r, "base") in by and (r, "branch") in by]
    return [by[(r, "base")] for r in rounds], \
        [by[(r, "branch")] for r in rounds]


def metric_row(name, base, branch, bound=None, better=None):
    """One report row and whether it fails the gate."""
    if not base:
        return f"  {name:<28} no paired values", bound is not None
    lo, hi = bootstrap_ci(base, branch)
    r = ratio(base, branch)
    sp = spread(base)
    flags = []
    failed = False
    if bound is not None:
        if worse_by(median(base), median(branch), better) > bound:
            flags.append("WORSE")
            failed = True
        # Too noisy to tell, unless every branch run beats every base run.
        if sp > bound and not all(worse_by(x, y, better) < 0
                                  for x in base for y in branch):
            flags.append("unresolved")
    if lo > 1.0 or hi < 1.0:
        flags.append("moved")
    bound_txt = f"{bound:>6.3f}" if bound is not None else "     -"
    row = (f"  {name:<28} {median(base):>14.6g} {median(branch):>14.6g} "
           f"{r:>8.4f} [{lo:.4f}, {hi:.4f}] {sp:>7.3f} {bound_txt}  "
           f"{' '.join(flags) or 'ok'}")
    return row, failed


def report(config, workload, records):
    """Report lines for one workload and whether the gate failed."""
    lines = [f"== {workload}"]
    failed = False
    head = (f"  {'metric':<28} {'base median':>14} {'branch median':>14} "
            f"{'ratio':>8} {'95% CI':<18} {'spread':>7} {'bound':>6}")

    for side in SIDES:
        bad = [r for r in records if r["side"] == side
               and (r["result"] is None or not r["result"]["correct"])]
        if bad:
            lines.append(f"  {side}: {len(bad)} run(s) incorrect or "
                         "without a result")
            failed = failed or side == "branch"
    ok = {side: [r["result"] for r in records
                 if r["side"] == side and r["result"] is not None]
          for side in SIDES}
    fb, ab, xb = fraction(ok["base"])
    fn, an, xn = fraction(ok["branch"])
    worse = xn > xb
    failed = failed or worse
    lines.append(f"  failed/attempted: base {fb}/{ab} ({xb:.4f}), "
                 f"branch {fn}/{an} ({xn:.4f})"
                 f"{'  WORSE' if worse else ''}")

    lines.append("  end to end (--trace 0)")
    lines.append(head)
    for m in config["end_to_end"]:
        base, branch = pairs(records, 0, m["name"])
        row, bad = metric_row(m["name"], base, branch, m["bound"],
                              m["better"])
        lines.append(row)
        failed = failed or bad
    lines.append("  per layer (--trace 1, report only)")
    lines.append(head)
    for m in config["per_layer"]:
        base, branch = pairs(records, 1, m["name"])
        lines.append(metric_row(m["name"], base, branch)[0])
    return lines, failed


# ------------------------------------------------------------------ runs

def git(cwd, *args):
    return subprocess.run(["git", "-C", cwd] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(path, rev):
    """Point the worktree at @p path to @p rev, creating it if needed."""
    sha = git(ROOT, "rev-parse", "--verify", rev + "^{commit}")
    git(ROOT, "worktree", "prune")
    if os.path.exists(os.path.join(path, ".git")):
        git(path, "checkout", "--quiet", "--force", "--detach", sha)
    else:
        git(ROOT, "worktree", "add", "--quiet", "--force", "--detach",
            path, sha)
    return sha


def run_one(command, cwd, workload, seed, seconds, trace):
    """One benchmark run's result object, or None if it produced none."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode == 0 and lines:
        try:
            out = json.loads(lines[-1])
            out["metrics"] = {k: v["value"]
                              for k, v in out["metrics"].items()}
            return out
        except (ValueError, KeyError, TypeError):
            pass
    sys.stderr.write(f"perf_ab: run exited {proc.returncode} without a "
                     "result; stderr tail:\n")
    sys.stderr.write("\n".join(proc.stderr.splitlines()[-20:]) + "\n")
    return None


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    trees = {"base": os.path.join(ROOT, ".perf_ab", "base"),
             "branch": os.path.join(ROOT, ".perf_ab", "head")}
    try:
        base_sha = checkout(trees["base"], argv[0])
        head_sha = checkout(trees["branch"], "HEAD")
    except subprocess.CalledProcessError as err:
        sys.stderr.write(f"perf_ab: git failed: {err.stderr}")
        return 2
    seconds = config["run_seconds"]
    plan = schedule(ROUNDS)
    print(f"perf_ab: base {base_sha} vs branch {head_sha}; "
          f"{len(config['workloads'])} workloads x {len(plan)} runs of "
          f"{seconds} s")
    sys.stdout.flush()

    failed = False
    out = []
    for w in config["workloads"]:
        records = []
        for rnd, trace, side in plan:
            result = run_one(config["command"], trees[side], w["name"],
                             rnd, seconds, trace)
            records.append({"round": rnd, "trace": trace, "side": side,
                            "result": result})
            print(f"run {w['name']} round={rnd} trace={trace} "
                  f"side={side}: "
                  f"{json.dumps(result, sort_keys=True)}")
            sys.stdout.flush()
        lines, bad = report(config, w["name"], records)
        out += lines
        failed = failed or bad
    print("\n".join(out))
    print(f"perf_ab: {'FAIL' if failed else 'pass'}")
    return 1 if failed else 0


# -------------------------------------------------------------- selftest

def selftest():
    """Check the gate's rules on synthetic records."""
    cfg = {"end_to_end": [
        {"name": "up", "better": "higher", "bound": 0.25},
        {"name": "down", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "layer", "better": "lower"}]}

    def gate(up=4.0, down=4.0, failed=50, correct=True, layer=1.0,
             base_up=None):
        """(gate failed, report text) against a steady base."""
        recs = []
        for i in range(10):
            for side, u, d, f, ok, lay in (
                    ("base", base_up[i] if base_up else 4.0, 4.0, 50,
                     True, 1.0),
                    ("branch", up, down, failed, correct, layer)):
                for trace, metrics in ((0, {"up": u, "down": d}),
                                       (1, {"layer": lay * (1 + i / 100)})):
                    recs.append({"round": i + 1, "trace": trace,
                                 "side": side, "result": {
                                     "correct": ok, "attempted": 100,
                                     "failed": f, "metrics": metrics}})
        lines, bad = report(cfg, "w", recs)
        return bad, "\n".join(lines)

    plan = schedule(2)
    noisy = [2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 6.0, 6.0, 6.0]
    a = [1.0 + i / 10 for i in range(10)]
    b = [1.05 + i / 9 for i in range(10)]
    cases = [
        ("odd round: branch first, --trace 0 pair first",
         plan[:4] == [(1, 0, "branch"), (1, 0, "base"),
                      (1, 1, "branch"), (1, 1, "base")]),
        ("even round: base first",
         plan[4:] == [(2, 0, "base"), (2, 0, "branch"),
                      (2, 1, "base"), (2, 1, "branch")]),
        ("identical sides pass", not gate()[0]),
        ("higher-better rise passes", not gate(up=8.0)[0]),
        ("lower-better fall passes", not gate(down=1.0)[0]),
        ("exactly 25% lower on higher-better passes", not gate(up=3.0)[0]),
        ("exactly 25% higher on lower-better passes", not gate(down=5.0)[0]),
        ("past the higher-better bound fails", gate(up=2.999)[0]),
        ("past the lower-better bound fails", gate(down=5.001)[0]),
        ("equal failure fraction passes", not gate(failed=50)[0]),
        ("smaller failure fraction passes", not gate(failed=10)[0]),
        ("larger failure fraction fails", gate(failed=51)[0]),
        ("incorrect branch fails", gate(correct=False)[0]),
        ("noisy base spread", spread(noisy) > 0.25),
        ("noisy base marked unresolved",
         "unresolved" in gate(base_up=noisy)[1]),
        ("steady base not unresolved", "unresolved" not in gate()[1]),
        ("noisy base beaten by every branch run not unresolved",
         "unresolved" not in gate(up=7.0, base_up=noisy)[1]),
        ("per-layer shift does not gate", not gate(layer=1.1)[0]),
        ("per-layer shift marked moved", "moved" in gate(layer=1.1)[1]),
        ("identical sides not moved", "moved" not in gate()[1]),
        ("bootstrap repeats exactly",
         bootstrap_ci(a, b) == bootstrap_ci(a, b)),
        ("report repeats exactly", gate(layer=1.1) == gate(layer=1.1)),
        ("a count rising from zero is moved",
         bootstrap_ci([0.0] * 10, [1.0] * 10)[0] > 1.0),
    ]
    failed = [name for name, ok in cases if not ok]
    for name in failed:
        print(f"perf_ab selftest FAILED: {name}")
    if not failed:
        print(f"perf_ab selftest passed: {len(cases)} checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
