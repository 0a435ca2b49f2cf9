"""perfbench's host clock, loaded from its file as ``test_tracer`` loads
the tracer."""

import pytest

from test_tracer import _load


@pytest.mark.xfail(raises=RuntimeError, strict=True,
                   reason="ROADMAP item 1: an interval that ends before the "
                          "first 20 ms sample has no calibration loop")
def test_interval_before_the_first_sample_is_timed():
    hostclock = _load("hostclock")
    with hostclock.HostClock(hostclock.python_loop,
                             hostclock.PYTHON_REFERENCE_S, 0.02) as clock:
        clock.since(clock.mark())
