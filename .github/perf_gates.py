"""CI performance gates: medians of repeated, interleaved runs, each
bounded by the spread those runs measured.

    python3 .github/perf_gates.py [--base-dir DIR] [GATE ...]

Run from the root of a built source checkout. GATE is any of

  recorder     flight.diff_overhead_ratio and flight.campaign_overhead_ratio
               of repeated `perfbench/run.py --workload diff-long --trace 1`
               runs: the flight recorder costs under 5 %;
  supervision  paired `ecsd faultsim --scenario noise-burst --seeds 32
               --on-error record` runs with and without `--deadline-s
               3600`: the cancellation poll costs under 5 %;
  regression   this checkout against the one at --base-dir (a checkout of
               the base commit): traced engine.step_us, silvm.step_us and
               engine.closed_loop_step_us (the MIL servo with its
               continuous plant), and the wall times of `ecsd diff servo
               --steps 5000 --engine interp`, of `ecsd pil` (320
               control periods over the virtual MCU's serial link) and of
               `ecsd faultsim --scenario noise-burst --seeds 8` (the MIL
               closed loop under injection), each side's runs
               interleaved, may not grow by more than 25 %;
  compiled     paired `ecsd diff servo --steps 5000` wall times: the
               compiled SIL engine is faster than the reference engine;
  restore      paired `ecsd faultsim --scenario sensor-stuck` runs with
               `--seeds 8` and `--seeds 1`, each pair the total of 10
               interleaved runs a side: a scenario that never draws from
               the RNG simulates one run, and the seven restored seeds
               cost under 8 % of the wall time;
  startup      paired `ecsd --version` spawns of this checkout and of the
               one at --base-dir, each pair the total of 20 interleaved
               spawns a side: a cold process of this checkout starts at
               most 10 % slower than the base's (a dynamic PIE relink of
               a static binary reads ~x1.2);
  metrics      paired `ecsd faultsim --scenario noise-burst --seeds 8` runs
               with and without `--metrics`, each pair the total of 10
               interleaved runs a side: collecting the metrics and spans
               costs under 5 %; the same ratio of `ecsd diff servo
               --steps 5000 --opt` is reported, not gated;
  scaling      `ecsd faultsim --scenario noise-burst --seeds 64 --jobs J`
               for J = 1..nproc: reported, never gated;

all of them when none is named. A gate reads `pass`, `fail` or
`unresolved` (its samples spread across its bound, so they show neither);
only `fail` makes the exit status 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import stats  # noqa: E402

TRACED_RUNS = 7
PAIRS = 11
SCALING_ROUNDS = 3
RECORDER_BOUND = 1.05
SUPERVISION_BOUND = 1.05
REGRESSION_BOUND = 1.25
RESTORE_BOUND = 1.08
# a run takes ~10 ms, so a single pair reads a burst of host noise as a
# ratio far from 1 either way
RESTORE_RUNS = 10
STARTUP_BOUND = 1.10
# a spawn takes ~2 ms, of which host noise moves a few tenths
STARTUP_RUNS = 20
METRICS_BOUND = 1.05
# a run takes ~25 ms: as for restore, one pair of runs reads host noise
METRICS_RUNS = 10

GATES = ("recorder", "supervision", "regression", "compiled", "restore",
         "startup", "metrics", "scaling")


# ---- decision rules (tested by test_perf_gates.py) ----

def quartiles(xs):
    """Lower quartile, median and upper quartile of a few samples,
    linear between order statistics (stats.percentile without its floor
    of ten samples beyond the quantile, which a handful of runs cannot
    meet)."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    pts = [(i / (len(xs) - 1), x) for i, x in enumerate(xs)]
    return tuple(stats.interpolate(pts, p) for p in (0.25, 0.5, 0.75))


def ratio_verdict(ratios, bound):
    """A cost ratio (lower is better) against its bound: `pass` when the
    upper quartile is within it, `fail` when the lower quartile exceeds
    it, `unresolved` when the interquartile range straddles it."""
    q1, _, q3 = quartiles(ratios)
    if q1 > bound:
        return "fail"
    return "pass" if q3 <= bound else "unresolved"


def regression_verdict(base, head, bound):
    """Head samples against base samples of one cost (lower is better):
    `fail` when the head median exceeds bound x the base median and every
    head run is slower than every base run, `unresolved` when the medians
    exceed the bound but the runs overlap, `pass` otherwise."""
    if statistics.median(head) <= bound * statistics.median(base):
        return "pass"
    return "fail" if min(head) > max(base) else "unresolved"


# ---- measurement ----

def child_env():
    # ECSD_* variables change what the program does (forced
    # divergence, ring size); every gate runs the program's defaults
    return {k: v for k, v in os.environ.items() if not k.startswith("ECSD_")}


def ecsd(tree):
    return os.path.join(tree, "_build", "default", "bin", "ecsd.exe")


def build(tree):
    subprocess.run(["dune", "build", "--root", tree, "--display=quiet",
                    "./bin/ecsd.exe"], check=True)


def wall(argv, cwd):
    """Wall seconds of one run of argv, which must exit 0."""
    t0 = time.perf_counter()
    r = subprocess.run(argv, cwd=cwd, env=child_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    dt = time.perf_counter() - t0
    if r.returncode != 0:
        sys.exit(f"perf_gates: {' '.join(argv)} exited {r.returncode}\n"
                 + r.stderr.decode(errors="replace"))
    return dt


def traced(tree):
    """Per-layer metrics of one traced diff-long run of the checkout."""
    r = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", "diff-long", "--seed", "1", "--trace", "1"],
        cwd=tree, env=child_env(), stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    res = json.loads(lines[-1]) if r.returncode == 0 and lines else {}
    if not res.get("correct"):
        sys.exit(f"perf_gates: traced run of {tree} failed "
                 f"(exit {r.returncode})")
    return {k: m["value"] for k, m in res["metrics"].items()}


def interleaved(n, sides):
    """n rounds over the named thunks, each round in the reverse order
    of the one before, so host drift hits every side alike. Returns
    {name: [sample per round]}."""
    out = {name: [] for name in sides}
    names = list(sides)
    for i in range(n):
        for name in (names if i % 2 == 0 else names[::-1]):
            out[name].append(sides[name]())
    return out


def show(label, xs, unit=""):
    q1, med, q3 = quartiles(xs)
    runs = " ".join(f"{x:.4g}" for x in xs)
    print(f"  {label}: median {med:.4g}{unit} (IQR {q1:.4g}-{q3:.4g}) "
          f"runs [{runs}]")


# ---- the gates ----

class Gates:
    def __init__(self, base_dir, tmp):
        self.base_dir = base_dir
        self.tmp = tmp
        self._traced = None
        self.verdicts = []

    def record(self, name, verdict):
        print(f"  -> {name}: {verdict.upper()}")
        self.verdicts.append((name, verdict))

    def total_ratios(self, runs, a, b):
        """PAIRS ratios of the total wall time of `runs` interleaved runs
        of the thunk a to that of b."""
        ratios = []
        for _ in range(PAIRS):
            s = interleaved(runs, {"a": a, "b": b})
            ratios.append(sum(s["a"]) / sum(s["b"]))
        return ratios

    def ratio_gate(self, name, ratios, bound):
        show(name, ratios)
        q1, med, _ = quartiles(ratios)
        # the lower quartile decides: at this spread, a cost fails the
        # gate once it moves the median ratio past bound x med / q1
        print(f"  fails once the median ratio exceeds x{bound * med / q1:.3f}")
        self.record(name, ratio_verdict(ratios, bound))

    def traced_runs(self):
        """Traced diff-long samples, head (and base, when given) runs
        interleaved; measured once for the recorder and regression gates."""
        if self._traced is None:
            sides = {"head": lambda: traced(ROOT)}
            if self.base_dir:
                sides["base"] = lambda: traced(self.base_dir)
            self._traced = interleaved(TRACED_RUNS, sides)
        return self._traced

    def recorder(self):
        print(f"recorder: {TRACED_RUNS} traced diff-long runs, "
              f"fail when the lower quartile exceeds x{RECORDER_BOUND}")
        head = self.traced_runs()["head"]
        for m in ("flight.diff_overhead_ratio", "flight.campaign_overhead_ratio"):
            self.ratio_gate(m, [r[m] for r in head], RECORDER_BOUND)

    def supervision(self):
        print(f"supervision: {PAIRS} interleaved pairs of faultsim "
              f"noise-burst --seeds 32 --on-error record, with / without "
              f"--deadline-s 3600")
        argv = [ecsd(ROOT), "faultsim", "--scenario", "noise-burst",
                "--seeds", "32", "--on-error", "record"]
        s = interleaved(PAIRS, {
            "plain": lambda: wall(argv, self.tmp),
            "deadline": lambda: wall(argv + ["--deadline-s", "3600"], self.tmp),
        })
        show("plain", s["plain"], " s")
        show("deadline", s["deadline"], " s")
        self.ratio_gate("deadline / plain",
                        [d / p for d, p in zip(s["deadline"], s["plain"])],
                        SUPERVISION_BOUND)

    def regression(self):
        print(f"regression: this checkout against {self.base_dir}, fail when "
              f"the median grows past x{REGRESSION_BOUND} and every run is slower")
        runs = self.traced_runs()
        for m in ("engine.step_us", "silvm.step_us",
                  "engine.closed_loop_step_us"):
            base = [r[m] for r in runs["base"]]
            head = [r[m] for r in runs["head"]]
            show(f"{m} base", base, " us")
            show(f"{m} head", head, " us")
            self.record(m, regression_verdict(base, head, REGRESSION_BOUND))
        for name, argv in (
                ("diff --engine interp",
                 ["diff", "servo", "--steps", "5000", "--engine", "interp"]),
                ("pil", ["pil"]),
                ("faultsim noise-burst",
                 ["faultsim", "--scenario", "noise-burst", "--seeds", "8"])):
            s = interleaved(TRACED_RUNS, {
                "base": lambda: wall([ecsd(self.base_dir)] + argv, self.tmp),
                "head": lambda: wall([ecsd(ROOT)] + argv, self.tmp),
            })
            show(f"{name} base", s["base"], " s")
            show(f"{name} head", s["head"], " s")
            self.record(f"{name} wall",
                        regression_verdict(s["base"], s["head"],
                                           REGRESSION_BOUND))

    def compiled(self):
        print(f"compiled: {TRACED_RUNS} interleaved pairs of diff servo "
              f"--steps 5000, --engine compiled / --engine interp")
        argv = [ecsd(ROOT), "diff", "servo", "--steps", "5000", "--engine"]
        s = interleaved(TRACED_RUNS, {
            "compiled": lambda: wall(argv + ["compiled"], self.tmp),
            "interp": lambda: wall(argv + ["interp"], self.tmp),
        })
        show("compiled", s["compiled"], " s")
        show("interp", s["interp"], " s")
        self.ratio_gate("compiled / interp",
                        [c / i for c, i in zip(s["compiled"], s["interp"])], 1.0)

    def restore(self):
        print(f"restore: {PAIRS} pairs of faultsim sensor-stuck, --seeds 8 / "
              f"--seeds 1, each the total of {RESTORE_RUNS} interleaved runs "
              f"a side")
        argv = [ecsd(ROOT), "faultsim", "--scenario", "sensor-stuck",
                "--seeds"]
        ratios = self.total_ratios(RESTORE_RUNS,
                                   lambda: wall(argv + ["8"], self.tmp),
                                   lambda: wall(argv + ["1"], self.tmp))
        self.ratio_gate("seeds 8 / seeds 1", ratios, RESTORE_BOUND)

    def startup(self):
        print(f"startup: {PAIRS} pairs of ecsd --version, this checkout / "
              f"{self.base_dir}, each the total of {STARTUP_RUNS} interleaved "
              f"spawns a side")
        ratios = self.total_ratios(
            STARTUP_RUNS,
            lambda: wall([ecsd(ROOT), "--version"], self.tmp),
            lambda: wall([ecsd(self.base_dir), "--version"], self.tmp))
        self.ratio_gate("head / base", ratios, STARTUP_BOUND)

    def metrics(self):
        print(f"metrics: {PAIRS} pairs of faultsim noise-burst --seeds 8 "
              f"(gated) and of diff servo --steps 5000 --opt (reported), "
              f"with / without --metrics, each the total of {METRICS_RUNS} "
              f"interleaved runs a side")
        for name, argv, gated in (
                ("faultsim", ["faultsim", "--scenario", "noise-burst",
                              "--seeds", "8"], True),
                ("diff", ["diff", "servo", "--steps", "5000", "--opt"],
                 False)):
            argv = [ecsd(ROOT)] + argv
            ratios = self.total_ratios(
                METRICS_RUNS,
                lambda: wall(argv + ["--metrics"], self.tmp),
                lambda: wall(argv, self.tmp))
            if gated:
                self.ratio_gate(f"{name} --metrics / plain", ratios,
                                METRICS_BOUND)
            else:
                show(f"{name} --metrics / plain (report only)", ratios)

    def scaling(self):
        nproc = len(os.sched_getaffinity(0))
        print(f"scaling (report only): faultsim noise-burst --seeds 64, "
              f"--jobs 1..{nproc}, {SCALING_ROUNDS} interleaved rounds")
        argv = [ecsd(ROOT), "faultsim", "--scenario", "noise-burst",
                "--seeds", "64", "--jobs"]
        s = interleaved(SCALING_ROUNDS, {
            j: (lambda j=j: wall(argv + [str(j)], self.tmp))
            for j in range(1, nproc + 1)})
        one = statistics.median(s[1])
        for j, xs in s.items():
            show(f"--jobs {j}", xs, " s")
            print(f"    speedup over --jobs 1: x{one / statistics.median(xs):.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base-dir", help="a checkout of the base commit "
                    "(needed by the regression and startup gates)")
    ap.add_argument("gates", nargs="*", metavar="GATE",
                    help=" | ".join(GATES) + " (default: all)")
    a = ap.parse_args()
    names = a.gates or list(GATES)
    for n in names:
        if n not in GATES:
            ap.error(f"unknown gate {n!r}")
    base = None
    if "regression" in names or "startup" in names:
        if not a.base_dir:
            ap.error("the regression and startup gates need --base-dir")
        base = os.path.abspath(a.base_dir)
        build(base)
    build(ROOT)
    print(f"nproc {len(os.sched_getaffinity(0))}, gates: {' '.join(names)}")
    with tempfile.TemporaryDirectory() as tmp:
        g = Gates(base, tmp)
        for name in names:
            getattr(g, name)()
    failed = [n for n, v in g.verdicts if v == "fail"]
    unresolved = [n for n, v in g.verdicts if v == "unresolved"]
    if unresolved:
        print(f"unresolved (spread wider than the bound): {', '.join(unresolved)}")
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        sys.exit(1)
    print("perf gates: no failure")


if __name__ == "__main__":
    main()
