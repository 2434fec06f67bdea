"""Summary statistics shared by the end-to-end and the traced run."""

# A percentile is reported only when at least this many samples lie
# beyond it, so p90 needs 100 samples and p50 needs 20.
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated p-quantile (0 < p < 1) of ``values``, or None
    when fewer than MIN_BEYOND samples would lie above it."""
    n = len(values)
    if n == 0 or n * (1.0 - p) < MIN_BEYOND - 1e-9:
        return None
    xs = sorted(values)
    pos = p * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def interpolate(points, t):
    """The value at time t of a series of (time, value) points, linear
    between neighbours and flat beyond the ends."""
    pts = sorted(points)
    if t <= pts[0][0]:
        return pts[0][1]
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0) if t1 > t0 else v1
    return pts[-1][1]


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval covered by its direct children.

    ``spans`` is a list of dicts with ``id``, ``parent`` (an id or None),
    ``start`` and ``end``. Children of one parent may overlap (the caller
    does not promise sequential children), so the covered part is the
    length of the union of the children's intervals clipped to the
    parent. Returns {id: self_time}.
    """
    by_id = {s["id"]: s for s in spans}
    kids = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for sid, s in by_id.items():
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids.get(sid, [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_name(spans):
    """Sum of self times per span name."""
    st = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + st[s["id"]]
    return totals
