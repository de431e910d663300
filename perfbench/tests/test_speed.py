"""Self-tests of the machine-speed sampling behind wall_s.

    python3 -m pytest perfbench/tests
"""

import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_samples_while_open_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        busy(20 * speed.PERIOD_S)
    n = len(sampler.samples)
    assert 10 <= n <= 20  # signals coalesce if the process waits 50 ms
    assert all(s > 0.0 for s in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    busy(3 * speed.PERIOD_S)
    assert len(sampler.samples) == n


def test_restores_the_handler_when_the_pass_raises():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        with speed.Sampler():
            raise RuntimeError("pass failed")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_at_reference_speed_removes_samples_and_slowdown():
    sampler = speed.Sampler()
    sampler.samples = [2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S]
    assert sampler.slowdown() == pytest.approx(3.0)
    wall = 1.0
    assert sampler.at_reference_speed(wall) == pytest.approx(
        (wall - 6 * speed.REFERENCE_S) / 3.0)


def test_at_reference_speed_needs_a_sample():
    with pytest.raises(ValueError):
        speed.Sampler().at_reference_speed(0.01)
