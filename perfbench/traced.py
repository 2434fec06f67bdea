"""The traced run: per-layer metrics from an in-process replay.

The layer driver (perfbench/_layers/layers.ml) replays the first ops of
the workload's seeded inputs with spans off and on, and times or counts
each layer on fixed inputs. This module turns its spans into self times
per layer, checks that named spans cover the replay, and reports the
tracing overhead and the per-layer metrics.
"""

import json
import os
import random
import statistics
import subprocess
import sys

import proc
import stats
import workloads

# Ops replayed in-process; the layer driver runs each op eight times,
# four with spans and four without.
REPLAY_OPS = {
    "design-iteration": 40,
    "diff-long": 8,
    "faultsim-campaign": 7,
    "serve-small": 300,
}
# ROADMAP's invariant: named layer spans (with the named residual)
# account for at least this share of the replay's wall time.
MIN_COVERAGE = 0.9
STARTUP_PROBES = 21

# span name -> layer
LAYER = {
    "model.build": "model", "model.compile": "model",
    "analysis.check": "analysis",
    "peert.generate": "peert", "peert.write": "peert",
    "engine.create": "engine",
    "pil.run": "pil",
    "diff.run": "diff (Silvm_diff.run)",
    "fault.campaign": "fault",
    "report.fault_json": "report",
    "exec.roundtrip": "exec",
    "supervise": "supervise",
    "obs.snapshot": "obs",
}

UNITS = {
    "c_lines": "count", "opaque_nodes": "count", "stmts_per_step": "count",
}


def unit_of(name):
    suffix = name.split(".", 1)[1]
    if suffix in UNITS:
        return UNITS[suffix]
    for end, unit in (("_ms", "ms"), ("_us", "us"), ("_ratio", "ratio")):
        if suffix.endswith(end):
            return unit
    raise ValueError(name)


def layer_self_times(spans):
    """Self time per layer, and the ops' own (unattributed) time.
    ``spans`` as stats.self_times takes them."""
    by_name = stats.self_time_by_name(spans)
    layers = {}
    for name, t in by_name.items():
        if name == "op":
            continue
        layer = LAYER.get(name, name)
        layers[layer] = layers.get(layer, 0.0) + t
    return layers, by_name.get("op", 0.0)


def run(workload, seed, env, ecsd, tmp, build_layers):
    [exe] = build_layers("layers.exe")
    n = REPLAY_OPS[workload]
    lines = workloads.replay_lines(workload, random.Random(seed), n)
    inputs = os.path.join(tmp, "inputs.txt")
    out = os.path.join(tmp, "layers.json")
    with open(inputs, "w") as f:
        f.write("\n".join([workload] + lines) + "\n")
    r = subprocess.run([exe, inputs, workloads.REF_DIR, tmp, out], env=env,
                       timeout=150)
    if r.returncode != 0:
        sys.exit(f"perfbench: layer driver exited {r.returncode}")
    with open(out) as f:
        res = json.load(f)

    spans = [{"id": i, "parent": (p or None), "name": nm, "start": a, "end": b}
             for i, p, nm, a, b in res["spans"]]
    wall = sum(s["end"] - s["start"] for s in spans if s["name"] == "op")
    layers, unattributed = layer_self_times(spans)
    coverage = 1.0 - unattributed / wall
    overhead = res["wall_on"] / res["wall_off"]

    startup = [proc.run([ecsd, "--version"], env).wall
               for _ in range(STARTUP_PROBES)]
    metrics = dict(res["metrics"])
    metrics["cli.startup_ms"] = statistics.median(startup) * 1e3
    metrics["trace.coverage_ratio"] = coverage
    metrics["trace.overhead_ratio"] = overhead

    m = res["metrics"]
    lock = {k: m[k] for k in ("engine.step_us", "silvm.step_us",
                              "plant.step_us", "diff.harness_us")}
    print(f"traced replay of {workload}: {n} ops x {res['runs'] // n} runs, "
          f"{res['wall_on'] * 1e3:.1f} ms with spans, "
          f"{res['wall_off'] * 1e3:.1f} ms without (overhead x{overhead:.4f})")
    print("  self time per layer:")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<24} {t * 1e3:10.2f} ms  {100 * t / wall:5.1f} %")
    print(f"    {'(unattributed)':<24} {unattributed * 1e3:10.2f} ms  "
          f"{100 * unattributed / wall:5.1f} %")
    print("  one lock-step of diff servo --opt, recorder off (us):")
    total = sum(lock.values())
    for k, v in lock.items():
        tag = "  <- named residual" if k == "diff.harness_us" else ""
        print(f"    {k:<24} {v:10.3f}{tag}")
    print(f"    {'lock-step total':<24} {total:10.3f}")
    print("  per-layer metrics:")
    for k in sorted(metrics):
        print(f"    {k:<32} {metrics[k]:14.6g} {unit_of(k)}")

    if coverage < MIN_COVERAGE:
        sys.exit(f"perfbench: named spans cover {coverage:.1%} of the "
                 f"{workload} replay, below {MIN_COVERAGE:.0%}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["runs"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted(metrics.items())},
    }
