"""The machine's speed, sampled while a child runs, to rescale its times.

On a shared virtual machine the speed of a vCPU drifts by up to 2x within
seconds, with its neighbours' load; that drift, not syzlab, sets most of the
run-to-run spread of a wall-clock time.  A `Sampler` times a fixed
pure-Python kernel every PERIOD_S of the process's CPU time, from a SIGPROF
handler: on the same vCPU as the measured work and interleaved with it, so
each sample sees the speed the work saw at that moment.  A span of work is
rescaled to the reference speed, at which the kernel takes REF_KERNEL_S:

    reference seconds = (measured seconds - handler seconds) * mean(REF_KERNEL_S / sample)

over the samples taken within WINDOW_S of the span.  The handler only reads
the clock and works on its own locals, so syzlab's state and output are
untouched; its own time is subtracted.
"""

from __future__ import annotations

import signal
import time

REF_KERNEL_S = 250e-6     # the kernel's time on a quiet 2-vCPU Xeon VM
PERIOD_S = 0.02           # CPU time between samples: ~1.3% of it goes to the kernel
WINDOW_S = 0.5            # speed of a span: samples up to this far outside it


def kernel() -> int:
    """Dict and small-int work, the kind syzlab's interpreter time goes to."""
    d = {}
    for i in range(1500):
        k = (i * 7919) % 503
        d[k] = d.get(k, 0) + i
    return len(d)


class Sampler:
    """Kernel timings as (start, seconds); `spent` is their total."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append((start, took))
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean speed relative to the reference around [start, end]; over all
        samples when none falls within WINDOW_S of it."""
        near = [took for t, took in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S] or [t for _, t in self.samples]
        return sum(REF_KERNEL_S / took for took in near) / len(near)
