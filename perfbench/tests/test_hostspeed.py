"""The host-speed arithmetic, on synthetic probe readings."""

from __future__ import annotations

import os
import time

import pytest

import hostspeed

REF = hostspeed.REFERENCE_S


def _timeline(starts, ends, probes):
    """A timeline whose probes ran at the given times and read the given seconds."""
    timeline = hostspeed.Timeline()
    timeline._starts, timeline._ends, timeline._probes = list(starts), list(ends), list(probes)
    return timeline


def test_a_window_is_scaled_by_the_mean_of_its_two_probes():
    # Windows [1, 3] at the reference speed and [4, 6] at half of it.
    timeline = _timeline([0.0, 3.0, 6.0], [1.0, 4.0, 7.0], [REF, REF, 3 * REF])
    assert timeline.scaled(1.5, 2.5) == pytest.approx(1.0)
    assert timeline.scaled(4.5, 5.5) == pytest.approx(0.5)


def test_probe_time_is_not_work_time():
    timeline = _timeline([0.0, 3.0, 6.0], [1.0, 4.0, 7.0], [REF, REF, 3 * REF])
    assert timeline.raw(2.0, 5.0) == pytest.approx(2.0)
    assert timeline.scaled(2.0, 5.0) == pytest.approx(1.5)
    assert timeline.raw(0.5, 6.0) == pytest.approx(4.0)
    assert timeline.scaled(0.5, 6.0) == pytest.approx(3.0)


def test_a_stretch_must_be_closed_by_a_probe():
    timeline = _timeline([0.0, 3.0], [1.0, 4.0], [REF, REF])
    with pytest.raises(ValueError):
        timeline.scaled(1.0, 5.0)


def test_tick_probes_only_once_the_window_is_full():
    timeline = hostspeed.Timeline(window_s=3600.0)
    timeline.tick()
    assert len(timeline._probes) == 1
    timeline.window_s = 0.0
    timeline.tick()
    assert len(timeline._probes) == 2


def test_sampler_scales_by_its_mean_speed_and_leaves_affinity_alone():
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    with hostspeed.Sampler(period_s=0.001) as sampler:
        time.sleep(0.02)
    assert sampler.samples
    sampler.samples[:] = [REF, REF / 3]
    assert sampler.scaled(10.0, 11.0) == pytest.approx(2.0)
    assert sampler.raw(10.0, 11.0) == pytest.approx(1.0)
    if before is not None:
        assert os.sched_getaffinity(0) == before


def test_on_one_cpu_restores_the_affinity():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    before = os.sched_getaffinity(0)
    with hostspeed.on_one_cpu():
        assert len(os.sched_getaffinity(0)) == 1
    assert os.sched_getaffinity(0) == before
