"""Closed-loop client for `ecsd serve` and the check of its records.

The client keeps a fixed number of job lines outstanding: it sends the
next line only after the oldest one's record has come back. serve
answers in submission order, so record k must carry id k.
"""

import json
import time

# (weight, job line) of the mix; malformed lines are drawn from MALFORMED.
MIX = [
    (0.87, "diff servo 100"),
    (0.10, "diff isr-demo 200"),
    (0.01, "stats"),
    (0.02, None),
]
MALFORMED = ["diff servo many", "frobnicate 3", "faultsim", "diff servo 100 - x"]


def job_lines(rng, n):
    lines = []
    for _ in range(n):
        r = rng.random()
        for w, line in MIX:
            if r < w:
                break
            r -= w
        lines.append(line if line is not None else rng.choice(MALFORMED))
    return lines


def expected(line):
    """The outcome a well-behaved serve gives a job line."""
    if line == "stats":
        return {"job": "stats", "exit": 0}
    words = line.split()
    if (len(words) == 3 and words[0] == "diff"
            and words[1] in ("servo", "isr-demo") and words[2].isdigit()):
        return {"job": "diff", "model": words[1].replace("-", "_"),
                "steps_run": int(words[2]), "divergence": None, "exit": 0}
    return {"class": "bad_request", "exit": 2}


def check_record(index, line, raw):
    """True when the raw record line answers job ``index`` (``line``)
    with the expected outcome."""
    if raw is None:
        return False
    try:
        rec = json.loads(raw)
    except ValueError:
        return False
    if not isinstance(rec, dict) or rec.get("id") != index:
        return False
    return all(k in rec and rec[k] == v for k, v in expected(line).items())


def drive(serve, lines, outstanding, first_id=0, on_checkpoint=None,
          checkpoints=()):
    """Feed ``lines`` to a running serve (a proc.Piped) with at most
    ``outstanding`` lines in flight; the session numbers ``lines[0]`` as
    ``first_id``. At each index in ``checkpoints`` the client first
    drains every outstanding line, then calls ``on_checkpoint()``.

    Returns (latencies, busy, failed). Both lists hold (time, seconds)
    pairs, the time at the middle of the interval: a latency runs from
    writing a line to reading its record; the busy intervals run between
    consecutive records (or from the first write after a checkpoint), so
    they add up to the session's time without the checkpoints."""
    n = len(lines)
    t_sent = [0.0] * n
    lat = []
    busy = []
    failed = 0
    sent = recv = 0
    stops = sorted(set(checkpoints))
    t_mark = None
    while recv < n:
        stop = stops[0] if stops else n
        while sent < min(n, stop) and sent - recv < outstanding:
            t_sent[sent] = time.perf_counter()
            if t_mark is None:
                t_mark = t_sent[sent]
            serve.send(lines[sent])
            sent += 1
        if recv == sent == stop and stops:
            stops.pop(0)
            if on_checkpoint is not None:
                on_checkpoint()
            t_mark = None
            continue
        raw = serve.readline()
        t = time.perf_counter()
        if raw is None:
            # EOF or timeout: every unanswered line has failed
            return lat, busy, failed + (n - recv)
        lat.append(((t + t_sent[recv]) / 2, t - t_sent[recv]))
        busy.append(((t + t_mark) / 2, t - t_mark))
        t_mark = t
        if not check_record(first_id + recv, lines[recv], raw):
            failed += 1
        recv += 1
    return lat, busy, failed
