import time

import pytest

import speedometer
from speedometer import REF_PROBE_S, Speedometer


def _meter(starts, durations):
    meter = Speedometer.__new__(Speedometer)
    meter.starts, meter.durations = list(starts), list(durations)
    return meter


def test_span_is_scaled_by_the_probes_inside_it():
    # probes at 1.0 and 2.0 ran at half and at the reference speed
    meter = _meter([1.0, 2.0, 5.0], [2 * REF_PROBE_S, REF_PROBE_S, REF_PROBE_S / 4])
    work, ref = meter.at_reference_speed(0.5, 3.0)
    assert work == pytest.approx(2.5 - 3 * REF_PROBE_S)
    assert ref == pytest.approx(work * (0.5 + 1.0) / 2)


def test_span_without_probes_uses_the_nearest_one():
    meter = _meter([1.0, 2.0], [REF_PROBE_S, 2 * REF_PROBE_S])
    assert meter.at_reference_speed(2.5, 3.0) == pytest.approx((0.5, 0.25))
    assert meter.at_reference_speed(0.0, 0.5) == pytest.approx((0.5, 0.5))
    with pytest.raises(ValueError):
        _meter([], []).at_reference_speed(0.0, 1.0)


def test_live_meter_probes_and_restores_the_handler(monkeypatch):
    import signal

    monkeypatch.setattr(speedometer, "PROBE_ITERS", 200)
    before = signal.getsignal(signal.SIGALRM)
    with Speedometer(period=0.02) as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.durations) >= 3
    work, ref = meter.at_reference_speed(t0, t1)
    assert 0 < work < t1 - t0 and ref > 0
