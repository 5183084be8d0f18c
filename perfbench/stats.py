"""Statistics of the repo benchmark: percentiles under the sample-count
rule, failure accounting, and the unattributed share of replayed calls.

Percentile rule: a timing is reported as its median plus a tail
percentile, and a percentile q is only reported when at least ten samples
lie beyond it. With the nearest-rank definition used here the value at q
is the ceil(q * n)-th smallest sample, so n - ceil(q * n) samples lie
beyond it; p99 therefore needs n >= 1000.
"""

import math

MIN_BEYOND = 10

# Tail percentiles tried from the highest down when the one asked for is
# not supported by the sample.
TAIL_LADDER = (0.99, 0.95, 0.9, 0.5)


def rank(q, n):
    """1-based nearest rank of percentile q among n samples."""
    return max(1, math.ceil(q * n - 1e-9))


def beyond(q, n):
    """Samples strictly beyond the q-th percentile's rank."""
    return n - rank(q, n)


def supported(q, n):
    """True iff the sample of size n supports reporting percentile q."""
    if n == 0:
        return False
    if q <= 0.5:
        return True
    return beyond(q, n) >= MIN_BEYOND


def percentile(samples, q):
    """Nearest-rank percentile q of `samples` (not required to be sorted)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    return ordered[rank(q, len(ordered)) - 1]


def highest_supported(q, n):
    """The highest percentile no higher than q that n samples support."""
    for candidate in TAIL_LADDER:
        if candidate <= q and supported(candidate, n):
            return candidate
    return None


class Timing:
    """A percentile of a sample, with the percentile actually reported.

    `q` is what was asked for and `q_used` what the sample supports;
    `value` is the percentile at q_used (None for an empty sample).
    """

    def __init__(self, samples, q):
        self.n = len(samples)
        self.q = q
        self.q_used = highest_supported(q, self.n)
        self.value = (
            percentile(samples, self.q_used) if self.q_used is not None else None
        )

    @property
    def supported(self):
        return self.q_used == self.q

    def label(self):
        if self.q_used is None:
            return "no samples"
        tag = "p%g" % (self.q_used * 100)
        return "%s of n=%d" % (tag, self.n)


def fail_rate(attempted, failed):
    """Failed operations over attempted ones. Shed requests, missed
    deadlines, error statuses and answers that fail verification are all
    counted in `failed` by the caller."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def duration_ns(span):
    return span["end_ns"] - span["start_ns"]


def unattributed_shares(spans, whole, parts):
    """Per replayed call, the share of its time that its stepwise
    re-execution does not account for.

    The replay times the real call as a `whole` span (one opaque public
    call, such as SelectionExecutor::Select), then re-runs its work one
    public call at a time as `parts` spans beside it, under the same
    parent. The share is the whole's self time against those parts,
    max(0, whole - sum(parts)) / whole: work the real call does that no
    part re-executes shows up here. The parts run after the whole, not
    inside it, so their durations are summed, not overlapped with it.
    """
    groups = {}
    for span in spans:
        groups.setdefault(span.get("parent"), []).append(span)
    shares = []
    for group in groups.values():
        wholes = [s for s in group if s["name"] == whole]
        if not wholes:
            continue
        if len(wholes) > 1:
            raise ValueError("%d %s spans under one parent" % (len(wholes), whole))
        duration = duration_ns(wholes[0])
        if duration <= 0:
            continue
        explained = sum(duration_ns(s) for s in group if s["name"] in parts)
        shares.append(max(0, duration - explained) / duration)
    return shares


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0
