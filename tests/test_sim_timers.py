"""Unit tests for watchdog and periodic timers."""

import pytest

from repro.sim import Engine, Timer, PeriodicTimer


class TestTimer:
    def test_fires_once_after_duration(self):
        eng = Engine()
        fired = []
        t = Timer(eng, 10.0, lambda: fired.append(eng.now))
        t.start()
        eng.run()
        assert fired == [10.0]
        assert t.expirations == 1
        assert not t.running

    def test_restart_postpones_expiry(self):
        eng = Engine()
        fired = []
        t = Timer(eng, 10.0, lambda: fired.append(eng.now))
        t.start()
        eng.run(until=6.0)
        t.restart()
        eng.run()
        assert fired == [16.0]

    def test_watchdog_never_fires_if_kicked(self):
        eng = Engine()
        fired = []
        t = Timer(eng, 10.0, lambda: fired.append(eng.now))
        t.start()
        for kick in range(1, 20):
            eng.run(until=float(kick * 5))
            t.restart()
        t.stop()
        eng.run()
        assert fired == []

    def test_stop_disarms(self):
        eng = Engine()
        fired = []
        t = Timer(eng, 10.0, lambda: fired.append(eng.now))
        t.start()
        eng.run(until=5.0)
        t.stop()
        eng.run()
        assert fired == []
        assert not t.running

    def test_start_while_running_is_noop(self):
        eng = Engine()
        fired = []
        t = Timer(eng, 10.0, lambda: fired.append(eng.now))
        t.start()
        eng.run(until=5.0)
        t.start()  # must not re-arm from t=5
        eng.run()
        assert fired == [10.0]

    def test_restart_with_new_duration(self):
        eng = Engine()
        fired = []
        t = Timer(eng, 10.0, lambda: fired.append(eng.now))
        t.start()
        eng.run(until=2.0)
        t.restart(duration=3.0)
        eng.run()
        assert fired == [5.0]
        assert t.duration == 3.0

    def test_deadline_property(self):
        eng = Engine()
        t = Timer(eng, 7.0, lambda: None)
        assert t.deadline is None
        t.start()
        assert t.deadline == 7.0

    def test_nonpositive_duration_rejected(self):
        eng = Engine()
        t = Timer(eng, 1.0, lambda: None)
        for bad in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                Timer(eng, bad, lambda: None)
            with pytest.raises(ValueError):
                t.restart(duration=bad)
        assert t.duration == 1.0

    def test_rejected_restart_keeps_the_watchdog_armed(self):
        # restart() used to disarm the timer before validating, leaving the
        # watchdog silently off after the ValueError
        eng = Engine()
        fired = []
        t = Timer(eng, 10.0, lambda: fired.append(eng.now))
        t.start()
        eng.run(until=3.0)
        for bad in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                t.restart(duration=bad)
            assert t.running and t.deadline == 10.0
        assert t.duration == 10.0
        eng.run()
        assert fired == [10.0]

    def test_timer_can_rearm_itself_from_callback(self):
        eng = Engine()
        fired = []

        def on_expire():
            fired.append(eng.now)
            if len(fired) < 3:
                t.start()

        t = Timer(eng, 4.0, on_expire)
        t.start()
        eng.run()
        assert fired == [4.0, 8.0, 12.0]
        assert t.expirations == 3


class TestPeriodicTimer:
    def test_fires_every_period(self):
        eng = Engine()
        fired = []
        pt = PeriodicTimer(eng, 5.0, lambda: fired.append(eng.now))
        pt.start()
        eng.run(until=26.0)
        pt.stop()
        assert fired == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]

    def test_phase_offsets_first_firing(self):
        eng = Engine()
        fired = []
        pt = PeriodicTimer(eng, 10.0, lambda: fired.append(eng.now), phase=3.0)
        pt.start()
        eng.run(until=25.0)
        pt.stop()
        assert fired == [3.0, 13.0, 23.0]

    def test_stop_from_callback(self):
        eng = Engine()
        fired = []

        def cb():
            fired.append(eng.now)
            if len(fired) == 2:
                pt.stop()

        pt = PeriodicTimer(eng, 2.0, cb)
        pt.start()
        eng.run(until=100.0)
        assert fired == [0.0, 2.0]

    def test_firings_counter(self):
        eng = Engine()
        pt = PeriodicTimer(eng, 1.0, lambda: None)
        pt.start()
        eng.run(until=4.5)
        pt.stop()
        assert pt.firings == 5

    def test_invalid_params_rejected(self):
        eng = Engine()
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                PeriodicTimer(eng, bad, lambda: None)
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                PeriodicTimer(eng, 1.0, lambda: None, phase=bad)

    def test_start_twice_is_noop(self):
        eng = Engine()
        fired = []
        pt = PeriodicTimer(eng, 5.0, lambda: fired.append(eng.now))
        pt.start()
        pt.start()
        eng.run(until=11.0)
        pt.stop()
        assert fired == [0.0, 5.0, 10.0]
