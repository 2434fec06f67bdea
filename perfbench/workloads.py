"""The end-to-end workloads, driven only through the `ecsd` CLI.

Every workload runs a fixed number of ops, derived from --seconds by a
fixed rate so that both sides of a comparison run identical work. Each
op starts the same work from the same state (a fresh process, or a
fresh job line), and each op's output is checked.
"""

import os
import shutil
import time

import proc
import serve_client

# Ops per second of nominal run time; ops = max(MIN_OPS, seconds * rate).
# The rates are constants, not measurements, so the op count is a pure
# function of --seconds.
RATE = {
    "design-iteration": 40,
    "diff-long": 12,
    "faultsim-campaign": 5,
    "serve-small": 300,
}
# p90 needs at least 100 samples (see stats.MIN_BEYOND).
MIN_OPS = 100
# Checkpoints per run, spread evenly across the ops. Each runs the
# host-speed reference and one set-up invocation, so both see the same
# host conditions the ops around them do.
CHECKPOINTS = 41
WARMUP_OPS = 2

# The host-speed reference (perfbench/_layers/calib.ml): REFERENCE_STEPS
# steps take REFERENCE_S seconds at the host speed all times are scaled
# to (the fast state of a 2-vCPU x86-64 VM).
REFERENCE_STEPS = "150000"
REFERENCE_S = 0.030

MCUS = ["MC56F8367", "MC56F8323", "MCF5213", "MPC5554"]
# PIL at 115200 baud needs periods of at least 1.64 ms; 2 ms and up keep
# every design feasible, so no op takes the fast error exit.
PERIODS = ["0.002", "0.0025", "0.003", "0.004", "0.005"]
SCENARIOS = [
    "encoder-dropout", "sensor-stuck", "noise-burst", "encoder-glitch",
    "actuator-jam", "overrun-burst", "wdog-suppress",
]
CODEGEN_FILES = sorted([
    "AS1.c", "Makefile", "PE_Types.h", "PWM1.c", "QD1.c", "SW1.c", "TI1.c",
    "Vectors.c", "main.c", "servo.c", "servo.h",
])
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")


def op_count(workload, seconds):
    return max(MIN_OPS, round(seconds * RATE[workload]))


def fields(out):
    """The `key : value` lines of a command's report."""
    d = {}
    for line in out.decode(errors="replace").splitlines():
        k, sep, v = line.partition(":")
        if sep:
            d[k.strip()] = v.strip()
    return d


def diff_ok(o, steps):
    f = fields(o.out)
    return (o.code == 0 and f.get("steps") == f"{steps} / {steps}"
            and f.get("result") == "zero divergence")


class Sample:
    """What one run measured. Timings are (time, seconds) pairs, the time
    being the perf_counter reading at the middle of the interval."""

    def __init__(self):
        self.lat = []  # per timed op
        self.busy = []  # intervals that add up to the ops' busy time
        self.attempted = 0
        self.failed = 0
        self.maxrss_kb = 0
        self.setup = []  # per set-up probe
        self.setup_failed = 0
        self.reference = []  # per run of the host-speed reference


class Ctx:
    def __init__(self, ecsd, reference, env, tmp, rng, n_ops):
        self.ecsd = ecsd
        self.reference = reference
        self.env = env
        self.tmp = tmp
        self.rng = rng
        self.n_ops = n_ops

    def run(self, args):
        return proc.run([self.ecsd] + args, self.env)

    def measure_reference(self, s):
        t = time.perf_counter()
        o = proc.run([self.reference, REFERENCE_STEPS], self.env)
        if o.code != 0:
            raise RuntimeError(f"host-speed reference exited {o.code}")
        s.reference.append((t + o.wall / 2, o.wall))


def checkpoints(n_ops):
    """Op indices before which a checkpoint runs."""
    return {round(i * n_ops / CHECKPOINTS) for i in range(CHECKPOINTS)}


def run_ops(ctx, ops, setup_args, setup_ok):
    """Run warm-up ops, then the timed ops with checkpoints spread among
    them. Each op is a callable returning (wall_s, ok, maxrss_kb)."""
    s = Sample()

    def checkpoint():
        ctx.measure_reference(s)
        t = time.perf_counter()
        o = ctx.run(setup_args)
        s.setup.append((t + o.wall / 2, o.wall))
        if not setup_ok(o):
            s.setup_failed += 1

    for op in ops[:WARMUP_OPS]:
        _, ok, _ = op()
        s.attempted += 1
        s.failed += not ok
    checkpoint()
    s.setup.clear()
    s.reference.clear()
    at = checkpoints(len(ops) - WARMUP_OPS)
    for i, op in enumerate(ops[WARMUP_OPS:]):
        if i in at:
            checkpoint()
        t = time.perf_counter()
        wall, ok, rss = op()
        s.attempted += 1
        s.failed += not ok
        s.lat.append((t + wall / 2, wall))
        s.maxrss_kb = max(s.maxrss_kb, rss)
    ctx.measure_reference(s)
    s.busy = s.lat
    return s


# ---- design-iteration ----

def design_op(ctx, mcu, period, fixed):
    flags = ["--mcu", mcu, "--period", period] + (["--fixed"] if fixed else [])
    cg = os.path.join(ctx.tmp, "cg")

    def check_ok(o):
        # the Q15 variant's pid input overflows: range analysis must
        # report it (FXP002, the paper's E2 finding) as its one error
        summary = fields(o.out).get("check servo_ctl")
        if fixed:
            return (o.code == 0 and summary == "1 error, 0 warnings, 7 info"
                    and b" FXP002 pid " in o.out)
        return o.code == 0 and summary == "0 errors, 0 warnings, 4 info"

    def codegen_ok(o):
        try:
            files = sorted(os.listdir(cg))
        except OSError:
            return False
        return (o.code == 0 and files == CODEGEN_FILES and all(
            os.path.getsize(os.path.join(cg, f)) > 0 for f in files))

    def pil_ok(o):
        f = fields(o.out)
        return o.code == 0 and f.get("periods") == "100" and f.get("overruns") == "0"

    steps = [
        (["check", "servo"], check_ok),
        (["codegen", "--opt", "-o", cg], codegen_ok),
        (["pil", "--periods", "100"], pil_ok),
        (["diff", "servo", "--steps", "200"], lambda o: diff_ok(o, 200)),
    ]

    def op():
        shutil.rmtree(cg, ignore_errors=True)
        wall, ok, rss = 0.0, True, 0
        for args, good in steps:
            o = ctx.run(args + flags)
            wall += o.wall
            ok = good(o) and ok
            rss = max(rss, o.maxrss_kb)
        return wall, ok, rss

    return op


def designs(rng, n):
    return [(rng.choice(MCUS), rng.choice(PERIODS), rng.random() < 0.5)
            for _ in range(n)]


def design_iteration(ctx):
    ops = [design_op(ctx, *d) for d in designs(ctx.rng, ctx.n_ops + WARMUP_OPS)]
    return run_ops(ctx, ops, ["diff", "servo", "--steps", "1"],
                   lambda o: diff_ok(o, 1))


# ---- diff-long ----

DIFF_LONG_STEPS = 5000


def diff_long(ctx):
    def op():
        o = ctx.run(["diff", "servo", "--steps", str(DIFF_LONG_STEPS), "--opt"])
        return o.wall, diff_ok(o, DIFF_LONG_STEPS), o.maxrss_kb

    return run_ops(ctx, [op] * (ctx.n_ops + WARMUP_OPS),
                   ["diff", "servo", "--steps", "1", "--opt"],
                   lambda o: diff_ok(o, 1))


# ---- faultsim-campaign ----

FAULT_SEEDS = "8"


def expected_report(scenario):
    with open(os.path.join(REF_DIR, scenario + ".json"), "rb") as f:
        return f.read()


def faultsim_args(scenario, out):
    return ["faultsim", "--scenario", scenario, "--seeds", FAULT_SEEDS,
            "--json-out", out]


def scenarios(rng, n):
    """The seven scenarios in seeded order, cycled."""
    order = SCENARIOS[:]
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(n)]


def faultsim_campaign(ctx):
    refs = {s: expected_report(s) for s in SCENARIOS}
    out = os.path.join(ctx.tmp, "fault.json")

    def make(scenario):
        def op():
            if os.path.exists(out):
                os.remove(out)
            o = ctx.run(faultsim_args(scenario, out))
            try:
                with open(out, "rb") as f:
                    same = f.read() == refs[scenario]
            except OSError:
                same = False
            return o.wall, o.code == 0 and same, o.maxrss_kb
        return op

    ops = [make(s) for s in scenarios(ctx.rng, ctx.n_ops + WARMUP_OPS)]
    return run_ops(ctx, ops, ["faultsim", "--seeds", "1", "--t-end", "0.001"],
                   lambda o: o.code == 0)


# ---- serve-small ----

OUTSTANDING = 2


def serve_argv(ctx):
    return [ctx.ecsd, "serve", "--jobs", "1"]


def serve_checkpoint(ctx, s):
    """The host-speed reference, then a set-up probe: spawn serve and
    time it until its first `stats` record."""
    ctx.measure_reference(s)
    p = proc.Piped(serve_argv(ctx), ctx.env, os.path.join(ctx.tmp, "serve-probe.err"))
    try:
        p.send("stats")
        raw = p.readline()
        t = time.perf_counter()
        s.setup.append(((p.t_spawn + t) / 2, t - p.t_spawn))
        rest = p.close()
    except BaseException:
        p.kill()
        raise
    if not (serve_client.check_record(0, "stats", raw) and rest == b""
            and p.code == 0):
        s.setup_failed += 1


def serve_small(ctx):
    s = Sample()
    lines = serve_client.job_lines(ctx.rng, ctx.n_ops + WARMUP_OPS)
    serve_checkpoint(ctx, s)
    s.setup.clear()
    s.reference.clear()
    p = proc.Piped(serve_argv(ctx), ctx.env, os.path.join(ctx.tmp, "serve.err"))
    try:
        # warm-up lines go through the same session, untimed
        _, _, s.failed = serve_client.drive(p, lines[:WARMUP_OPS], OUTSTANDING)
        timed = lines[WARMUP_OPS:]
        s.lat, s.busy, failed = serve_client.drive(
            p, timed, OUTSTANDING, first_id=WARMUP_OPS,
            on_checkpoint=lambda: serve_checkpoint(ctx, s),
            checkpoints=checkpoints(len(timed)))
        ctx.measure_reference(s)
        rest = p.close()
    except BaseException:
        p.kill()
        raise
    s.attempted = len(lines)
    s.failed += failed + (rest != b"") + (p.code != 0)
    s.maxrss_kb = p.maxrss_kb
    return s


def replay_lines(workload, rng, n):
    """The first n ops of a workload's seeded inputs, one line each, in
    the form the traced layer driver reads."""
    if workload == "design-iteration":
        return [f"{m} {p} {'fixed' if f else 'float'}" for m, p, f in designs(rng, n)]
    if workload == "diff-long":
        return [str(DIFF_LONG_STEPS)] * n
    if workload == "faultsim-campaign":
        return scenarios(rng, n)
    return serve_client.job_lines(rng, n)


WORKLOADS = {
    "design-iteration": design_iteration,
    "diff-long": diff_long,
    "faultsim-campaign": faultsim_campaign,
    "serve-small": serve_small,
}
