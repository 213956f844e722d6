"""Host speed probes, and query times scaled to a fixed reference speed.

The benchmark's hosts share physical cores with other tenants.  On a
2-vCPU host the same Python code ran up to 2x slower or faster, in states
that switched within milliseconds and in others that lasted minutes, so raw
wall times of the same code spread past any useful bound.  The benchmark
therefore runs `probe.probe()`, a fixed work unit, between every two queries
and, from a wall-clock timer, every SAMPLE_S while a query runs.  It reports
each query's wall time, less the probes inside it, scaled by
REFERENCE_S / (the mean probe time during and around that query): the time
the query would take on a host that runs the probe in REFERENCE_S.  A change
to the program changes the scaled times as much as the wall times; a change
of host speed mostly cancels.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

from probe import REFERENCE_S, probe

# Timer period while a pass runs: a probe every 20 ms costs about 1% of the
# time and gives a multi-second query about 50 probes per second.
SAMPLE_S = 0.02


class Probes:
    """Probe times and when they started, on the perf_counter clock."""

    def __init__(self):
        self.at: list = []
        self.seconds: list = []
        self._busy = False

    def take(self) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        try:
            self.at.append(time.perf_counter())
            self.seconds.append(probe())
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self, period: float = SAMPLE_S):
        """Also take a probe every `period` wall seconds, inside queries too."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.take())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, starts: list, latencies: list) -> tuple:
        """(net, scaled) seconds of the queries that ran from starts[i] for
        latencies[i] wall seconds.

        A query's net time is its wall time less the probes taken inside it.
        Its speed is the mean of those probes, of the last probe before it,
        of the first after it, and of every probe within one net query time
        before or after it, so a long query is scaled by the host's mean
        speed over its own run.
        """
        at, seconds = self.at, self.seconds
        prefix = [0.0]
        for value in seconds:
            prefix.append(prefix[-1] + value)
        net_all, scaled_all = [], []
        for start, latency in zip(starts, latencies):
            end = start + latency
            first = bisect.bisect_left(at, start)
            past = bisect.bisect_left(at, end)
            net = latency - (prefix[past] - prefix[first])
            lo = max(0, min(first - 1, bisect.bisect_left(at, start - net)))
            hi = min(len(at), max(past + 1, bisect.bisect_right(at, end + net)))
            mean = (prefix[hi] - prefix[lo]) / (hi - lo)
            net_all.append(net)
            scaled_all.append(net * REFERENCE_S / mean)
        return net_all, scaled_all
