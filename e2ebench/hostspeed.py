"""Host-speed probe: fixed work that the runner times while each
repetition runs, so that the end-to-end timings can be scaled to one
host speed.

On a shared host the same code runs at different speeds from one second
to the next, and each vCPU at its own. In slow periods measured on a
2-vCPU guest, fixed work took ~1.4x to ~2.8x its quiet time for many
minutes, often switching between two levels every second or so; CPU
time slowed with wall time, and the guest saw no steal time. A probe
timed between repetitions samples a different stretch of that than the
repetition did, and one timed on the other vCPU a different CPU. In such
a period table2_serial's throughput varied 8-12% from one repetition to
the next; scaled by a probe timed after each repetition, 21%; by one
timed on the other vCPU during it, 8%; by one timed on its own vCPU
during it, 2.6%. So :class:`Sampler` runs the probe *while* the
repetition runs, in a thread pinned to each CPU the repetition is pinned
to, a short pass at a time taking :data:`DUTY` of that CPU, each timed
by the thread's own CPU time, which time spent waiting for the CPU does
not inflate.

The probe is small, fixed work of the same kind as the program's: a
NumPy MLP trained by minibatch SGD in a Python loop, plus softmax-entropy
ranking. It runs in the runner's process, so nothing the program leaves
behind changes it. A repetition's timings are scaled by the ratio of the
probe's time (:meth:`Sampler.probe_s`) to :data:`REFERENCE_S` (see
:func:`scale_rate` and :func:`scale_time`): what they would have read on
a host on which the probe takes :data:`REFERENCE_S`. The repetition
loses the :data:`DUTY` share of its CPUs to the probe, on every host
alike.

NumPy is imported on the first probe, so the caller can set the BLAS
thread count first; the runner sets it to one, as for the repetitions.
"""

from __future__ import annotations

import os
import threading
import time

#: SGD steps of one probe pass (about 2 ms on a quiet host)
STEPS = 64
#: share of each sampled CPU the probe takes: after each pass a sampler
#: thread pauses for ``1 / DUTY - 1`` times as long as the pass took
DUTY = 0.04
#: a pass's CPU time on a quiet 2-vCPU KVM guest of a 2.1 GHz Intel
#: Xeon, one BLAS thread; the host speed the metrics are scaled to
REFERENCE_S = 0.002
#: share of the passes cut from each end before averaging them
TRIM = 0.1


def probe_once(steps: int = STEPS, clock=time.perf_counter) -> float:
    """Time one pass of the probe on ``clock``, in seconds."""
    import numpy as np

    rng = np.random.default_rng(12345)
    x = rng.standard_normal((256, 64))
    targets = np.eye(10)[rng.integers(0, 10, 256)]
    w1 = rng.standard_normal((64, 64)) * 0.1
    w2 = rng.standard_normal((64, 10)) * 0.1
    order = rng.permutation(256)
    start = clock()
    for step in range(steps):
        offset = (step * 32) % 256
        rows = order[offset : offset + 32]
        xb = x[rows]
        h = xb @ w1
        np.maximum(h, 0.0, out=h)
        z = h @ w2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - targets[rows]) / 32.0
        gh = g @ w2.T
        gh *= h > 0
        w2 -= 0.05 * (h.T @ g)
        w1 -= 0.05 * (xb.T @ gh)
        (-(p * np.log(p + 1e-12)).sum(axis=1)).argsort()
    return clock() - start


def trimmed_mean(values: list[float], trim: float = TRIM) -> float:
    """Mean of ``values`` without the ``trim`` share at either end: the
    average speed over a stretch of switching host speeds, without the
    odd pass that a page fault or an interrupt stretched."""
    if not values:
        raise ValueError("mean of no values")
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


class Sampler:
    """Times probe passes on each of ``cpus``, in a background thread
    pinned to each, for as long as it is entered as a context manager;
    the first passes start at once."""

    def __init__(self, cpus, steps: int = STEPS, duty: float = DUTY):
        self.steps = steps
        self.duty = duty
        self.samples: dict[int, list[float]] = {cpu: [] for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._run, args=(cpu,), name=f"hostspeed-{cpu}",
                daemon=True,
            )
            for cpu in self.samples
        ]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        samples = self.samples[cpu]
        while True:
            spent = probe_once(self.steps, clock=time.thread_time)
            samples.append(spent)
            if self._stop.wait(spent * (1.0 / self.duty - 1.0)):
                return

    def __enter__(self) -> "Sampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def probe_s(self) -> float:
        """The probe's time over the sampled stretch: per CPU, the trimmed
        mean of the passes' CPU times; then their mean over the CPUs."""
        per_cpu = [trimmed_mean(s) for s in self.samples.values()]
        return sum(per_cpu) / len(per_cpu)


def scale_rate(rate: float, probe_s: float) -> float:
    """A rate measured while the probe took ``probe_s``, at the
    reference host speed."""
    return rate * probe_s / REFERENCE_S


def scale_time(seconds: float, probe_s: float) -> float:
    """A duration measured while the probe took ``probe_s``, at the
    reference host speed."""
    return seconds * REFERENCE_S / probe_s
