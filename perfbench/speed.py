"""Machine speed during a pass, from a reference computation sampled on a
timer.

The speed of the shared machine the benchmark was defined on switches between
levels up to 2x apart, in phases from milliseconds to minutes long, on each
vCPU independently.  How much of a pass falls into slow phases, not the
program, set most of the spread of its wall time: the middle half of ten
runs spread over 31% of the median, and in some 20 s passes no moment ran at
the fast level.

While a pass runs, a SIGALRM handler times `reference`, a fixed miniature of
the program's kinds of work, every PERIOD_S seconds of wall time.
`Sampler.at_reference_speed` takes the pass's wall time less the reference's
own, divides it by the reference's mean time during the pass and multiplies
it by REFERENCE_S, the reference's time at the machine's fast level: the
pass's wall time at one fixed machine speed.  A change that makes the
program faster or slower moves it; the machine's phases move it far less
(README.md, Steadiness).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from numpy.polynomial import legendre as npleg

PERIOD_S = 0.05
# fastest of 2,000 timings of `reference` on a 2-vCPU KVM guest (Intel Xeon,
# Python 3.11, numpy 2.4 with OpenBLAS 0.3.31)
REFERENCE_S = 0.625e-3

# `reference` is a miniature of sgaflow's own work.  Its three parts are the
# three kinds of work the workloads spend their time in: numpy calls on tiny
# arrays (an RK4 flow of a 2-parameter linear model under a Legendre control),
# dense numpy arithmetic (a 100 x 8 tanh layer) and Python-level loops.  The
# machine's slow phases slow them by different factors, and which of them
# tracks a workload best differs by workload; their sum tracked all three.
_X = np.linspace(-1.0, 1.0, 200).reshape(100, 2)
_Y = np.linspace(0.0, 1.0, 100)
_W = np.linspace(-0.5, 0.5, 16).reshape(8, 2)
_C = np.linspace(-1.0, 1.0, 8).reshape(2, 4)
_SCALE = np.sqrt(2.0 * np.arange(4) + 1.0)


def _control(t: float) -> np.ndarray:
    return _C @ (_SCALE * npleg.legvander(np.atleast_1d(2.0 * t - 1.0), 3)[0])


def _gradient(theta: np.ndarray) -> np.ndarray:
    return (2.0 / 100) * (_X.T @ (_X @ theta - _Y))


def _rhs(t: float, theta: np.ndarray) -> np.ndarray:
    g = _gradient(theta)
    return -g + 0.1 * _control(t) * g


def reference() -> float:
    """Two RK4 steps of a controlled linear flow, eight tanh-layer
    gradients and a 3,500-step Python loop."""
    theta, h = np.zeros(2), 0.05
    for k in range(2):
        t = k * h
        k1 = _rhs(t, theta)
        k2 = _rhs(t + h / 2, theta + h / 2 * k1)
        k3 = _rhs(t + h / 2, theta + h / 2 * k2)
        k4 = _rhs(t + h, theta + h * k3)
        theta = theta + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    for _ in range(8):
        a = np.tanh(_X @ _W.T)
        r = a.sum(axis=1) - _Y
        grad = ((r[:, None] * (1.0 - a * a)).T @ _X) / 100.0
    acc = 0
    for i in range(3500):
        acc += i * i % 7
    return float(theta[0] + grad[0, 0]) + acc


class Sampler:
    """Times `reference` every PERIOD_S seconds while the context is open.

    Signals reach only the main thread, so the context must be entered there.
    """

    def __init__(self):
        self.samples: list[float] = []  # seconds each reference took
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """The reference's mean time over its time at the fast level."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def at_reference_speed(self, wall: float) -> float:
        """`wall` seconds, spent while the context was open, less the
        samples' own time and divided by the mean slowdown."""
        if not self.samples:
            raise ValueError(f"no speed sample in {wall:.3f} s; a pass must "
                             f"last longer than {PERIOD_S} s")
        return (wall - sum(self.samples)) / self.slowdown()
