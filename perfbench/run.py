"""Benchmark of the `ecsd` environment, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds `ecsd` from
source with dune, then:

  --trace 0  drives the workload through the `ecsd` command line only and
             reports the end-to-end metrics (throughput, latency p50/p90,
             peak RSS, set-up time);
  --trace 1  replays the same seeded inputs in-process through each
             layer's public functions (perfbench/_layers) and reports the
             per-layer metrics, self times and the tracing overhead.

A run makes a fixed number of ops, set by --seconds through a constant
rate per workload (see workloads.py), and checks every op's output.
The last stdout line is one JSON object: correct, attempted, failed,
metrics; the lines before it show the run environment and every metric
by name and unit, with the error rate. `--workload all` runs every
workload in turn, one JSON line each.

BENCHMARK.json lists design-iteration, diff-long and faultsim-campaign.
serve-small runs here too but is left out of it: between two sets of
ten runs taken minutes apart its set-up time moved from 7.6 to 3.8 ms
and its latency by 13-15 %, a change in host state the reference below
does not track, so the sets do not agree within its bounds.

Times are reported at a reference host speed. The hosts this runs on
change speed by up to 1.7x over seconds to minutes, and memory-bound
work like this program's slows the most. A fixed reference program
(perfbench/_layers/calib.ml) runs at 41 checkpoints spread through the
ops; every timed interval is multiplied by REFERENCE_S over the
reference's wall time interpolated at that moment. The raw wall times
are printed next to the reported ones.

    python3 perfbench/run.py --write-references

rewrites the committed faultsim reports in perfbench/ref from the
current build; do it only for a deliberate change of simulated results.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

import proc
import stats
import traced
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ECSD = os.path.join(ROOT, "_build", "default", "bin", "ecsd.exe")
TMP = os.path.join(ROOT, ".bench_tmp")
BUILD = os.path.join(ROOT, ".bench_build")

# Variables that change what the program does; the caller's values are
# dropped so every run sees the same program behaviour.
CLEARED = ["ECSD_CHAOS_SEED", "ECSD_CHAOS_RATE", "ECSD_DIVERGE_AT",
           "ECSD_FLIGHT_EVENTS", "ECSD_WALL_ZERO", "ECSD_GIT_REV"]
# Zero wall time and pin the revision string inside reports, so that
# faultsim reports compare byte for byte and no child spawns `git`.
PINNED = {"ECSD_WALL_ZERO": "1", "ECSD_GIT_REV": "perfbench"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune_build(root, *targets):
    r = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled", "-j", "2",
         "--display=quiet", *targets],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail(f"dune build {' '.join(targets)} failed")


def build_layers(*targets):
    """Build targets of perfbench/_layers in a workspace of its own under
    .bench_build: the repository's libraries plus that directory. The
    root workspace never builds it, so a change to a library's interface
    cannot break the repository's own build. Returns their paths."""
    ws = os.path.join(BUILD, "ws")
    os.makedirs(ws, exist_ok=True)
    for name, dest in (("lib", os.path.join(ROOT, "lib")),
                       ("perfbench", os.path.join(HERE, "_layers"))):
        link = os.path.join(ws, name)
        if os.path.islink(link) and os.readlink(link) == dest:
            continue
        if os.path.lexists(link):
            os.remove(link)
        os.symlink(dest, link)
    with open(os.path.join(ws, "dune-project"), "w") as f:
        f.write("(lang dune 3.0)\n")
    dune_build(ws, *("./perfbench/" + t for t in targets))
    return [os.path.join(ws, "_build", "default", "perfbench", t) for t in targets]


def build():
    """Build ecsd (the program under test), the spawn helper and the
    host-speed reference; returns the reference's path."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "bin", "ecsd.ml"))):
        fail(f"no ecsd sources under {ROOT} (run from a source checkout)")
    dune_build(ROOT, "./bin/ecsd.exe")
    proc.SPAWN, reference = build_layers("spawn.exe", "calib.exe")
    return reference


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env.update(PINNED)
    return env


def git_rev():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(env):
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                               capture_output=True, text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    with open(ECSD, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": ocaml,
        "git_rev": git_rev(),
        "ecsd_sha256": digest,
        "ecsd_env": {k: v for k, v in sorted(env.items()) if k.startswith("ECSD_")},
        "cleared": sorted(k for k in CLEARED if k in os.environ),
    }


def timing_metrics(s, scale):
    """The end-to-end timings of a sample, each interval multiplied by
    scale(time)."""
    lat = [w * scale(t) for t, w in s.lat]
    return {
        "throughput_per_s": (len(lat) / sum(w * scale(t) for t, w in s.busy), "1/s"),
        "latency_p50_ms": (stats.percentile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (stats.percentile(lat, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median([w * scale(t) for t, w in s.setup]), "s"),
    }


def end_to_end(workload, seed, seconds, env, reference):
    """Times are reported at the reference host speed: each interval is
    scaled by REFERENCE_S over the host-speed reference's wall time,
    interpolated at that moment from the reference runs around it."""
    n_ops = workloads.op_count(workload, seconds)
    ctx = workloads.Ctx(ECSD, reference, env, TMP, random.Random(seed), n_ops)
    s = workloads.WORKLOADS[workload](ctx)
    metrics = timing_metrics(
        s, lambda t: workloads.REFERENCE_S / stats.interpolate(s.reference, t))
    metrics["peak_rss_mb"] = (s.maxrss_kb / 1024.0, "MB")
    raw = timing_metrics(s, lambda t: 1.0)
    speed = workloads.REFERENCE_S / statistics.median([w for _, w in s.reference])
    print(f"workload {workload}: {s.attempted} ops attempted, "
          f"{len(s.lat)} timed, {len(s.setup)} set-up probes, "
          f"{len(s.reference)} reference runs (host speed x{speed:.3f})")
    print(f"  {'metric':<18} {'reported':>12} {'raw wall':>12}")
    for name, (v, unit) in metrics.items():
        r = f"{raw[name][0]:12.4f}" if name in raw else " " * 12
        print(f"  {name:<18} {v:12.4f} {r} {unit}")
    print(f"  {'error_rate':<18} {s.failed / s.attempted:12.4f} "
          f"({s.failed} of {s.attempted} ops)")
    if s.setup_failed:
        print(f"  set-up probes failed: {s.setup_failed}")
    return {
        "correct": s.failed == 0 and s.setup_failed == 0,
        "attempted": s.attempted,
        "failed": s.failed + s.setup_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_references(env):
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    for scn in workloads.SCENARIOS:
        out = os.path.join(workloads.REF_DIR, scn + ".json")
        o = proc.run([ECSD] + workloads.faultsim_args(scn, out), env)
        if o.code != 0:
            fail(f"faultsim {scn} exited {o.code}")
        print(f"wrote {out}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-references", action="store_true")
    a = ap.parse_args()
    if not a.write_references and a.workload is None:
        ap.error("--workload is required")
    reference = build()
    env = child_env()
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    try:
        if a.write_references:
            write_references(env)
            return
        print("env " + json.dumps(environment(env), sort_keys=True))
        names = sorted(workloads.WORKLOADS) if a.workload == "all" else [a.workload]
        for name in names:
            if a.trace:
                result = traced.run(name, a.seed, env, ECSD, TMP, build_layers)
            else:
                result = end_to_end(name, a.seed, a.seconds, env, reference)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    main()
