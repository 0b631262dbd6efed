"""Machine-speed reference, so that times from a shared machine compare.

On a machine shared with other tenants a core runs at one of two speeds
about 1.9x apart, switching in stretches of tens of milliseconds to
seconds, for every job alike.  The sampler runs a fixed pure-Python chunk
(`reference`, the same kind of work as the program: permutation tuples
composed by comprehension, a minimum over conjugates, dict and set
updates) every INTERVAL_S of wall time from a SIGALRM handler, during the
timed jobs themselves.  Each job's time is multiplied by REF_NOMINAL_S
times the mean speed (1 / chunk time) of the samples taken while it ran,
or of the LOCAL samples nearest to it if it ran too briefly to hold that
many: it reads as seconds at the speed at which the chunk takes
REF_NOMINAL_S.  Time spent in the handler is taken out of the job it
interrupted.

The factor is a mean of speeds, not a median of chunk times: a job's time
follows the mean speed over its run, while the median of a bimodal set of
chunk times jumps from one mode to the other from run to run.

The chunk is benchmark code and never changes with the program, so two
commits are measured against the same yardstick.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

perf = time.perf_counter

# Chunk time that defines the reference speed; of the order of a chunk
# on the machine the baseline was taken on (see baseline.json).
REF_NOMINAL_S = 0.0011
INTERVAL_S = 0.02
LOCAL = 10
MIN_SAMPLES = 20

_Q = (3, 7, 0, 12, 5, 1, 16, 9, 2, 14, 4, 17, 8, 6, 11, 15, 10, 13)


def reference() -> int:
    """A fixed amount of work shaped like the program's inner loops."""
    rows = [_Q]
    for _ in range(5):
        rows.append(tuple(_Q[i] for i in rows[-1]))
    counts: dict = {}
    seen = set()
    x = tuple(range(18))
    for _ in range(80):
        x = tuple(_Q[i] for i in x)
        c = min(tuple(r[g] for g in x[:6]) for r in rows)
        counts[c] = counts.get(c, 0) + 1
        seen.add(x)
    return len(counts) + len(seen)


def sample() -> float:
    """Seconds one reference chunk takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf()
    reference()
    elapsed = perf() - t0
    if enabled:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Samples the reference chunk on a wall-clock timer while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, chunk seconds)
        self.handler_s = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = perf()
        self.samples.append((t0, sample()))
        self.handler_s += perf() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, top_up: bool = True) -> None:
        """Stop the timer; with top_up, run chunks back to back until
        there are MIN_SAMPLES samples."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while top_up and len(self.samples) < MIN_SAMPLES:
            self.samples.append((perf(), sample()))

    def factor(self) -> float:
        """The factor for the whole sampled period."""
        return _factor(d for _, d in self.samples)

    def factors(self, intervals) -> list[float]:
        """The factor for each (start, end) interval, from its own samples."""
        starts = [t for t, _ in self.samples]
        out = []
        for start, end in intervals:
            lo, hi = bisect_left(starts, start), bisect_right(starts, end)
            if hi - lo < LOCAL:
                mid = bisect_left(starts, (start + end) / 2)
                lo = max(0, min(mid - LOCAL // 2, len(starts) - LOCAL))
                hi = lo + LOCAL
            out.append(_factor(d for _, d in self.samples[lo:hi]))
        return out


def _factor(chunk_times) -> float:
    """REF_NOMINAL_S times the mean speed over the given chunk times."""
    return REF_NOMINAL_S * statistics.fmean(1 / d for d in chunk_times)

