"""Tests for §4.3 conflict avoidance (backoff + coroutine throttling)."""

import random

import pytest

from repro.core.backoff import ConflictAvoider
from repro.core.features import SmartFeatures
from repro.sim import Simulator


def make_avoider(sim, **overrides):
    features = SmartFeatures().with_overrides(**overrides)
    return ConflictAvoider(sim, features, random.Random(1), cpu_ghz=2.0)


class TestBackoffDelay:
    def test_t0_matches_paper_units(self):
        sim = Simulator()
        avoider = make_avoider(sim)
        # 4096 cycles at 2 GHz = 2048 ns.
        assert avoider.t0_ns == pytest.approx(2048.0)
        assert avoider.t_big_ns == pytest.approx(2048.0 * 1024)

    def test_backoff_grows_then_truncates(self):
        sim = Simulator()
        avoider = make_avoider(sim, dynamic_backoff_limit=False)
        avoider.t_max_ns = avoider.t0_ns * 4
        lows = [min(avoider.t0_ns * 2 ** i, avoider.t_max_ns) for i in range(6)]
        for attempt, low in enumerate(lows):
            delay = avoider.backoff_ns(attempt)
            assert low <= delay <= low + avoider.t0_ns

    def test_backoff_disabled_returns_zero(self):
        sim = Simulator()
        avoider = make_avoider(sim, backoff=False)
        assert avoider.backoff_ns(5) == 0.0

    def test_reconnect_backoff_ignores_feature_gate(self):
        """Recovery retries always back off, even with features.backoff off."""
        sim = Simulator()
        avoider = make_avoider(sim, backoff=False)
        delays = [avoider.reconnect_backoff_ns(a) for a in range(4)]
        assert all(d > 0 for d in delays)
        # Window widths double per attempt (truncated exponential).
        assert avoider.reconnect_backoff_ns(10) <= avoider.t_big_ns * 2

    def test_stop_interrupts_sleeping_window_process(self):
        """stop() must not leave the window sleeper holding a heap event."""
        sim = Simulator()
        avoider = make_avoider(sim, dynamic_backoff_limit=True)
        assert avoider._window_process.alive
        avoider.stop()
        sim.run(until=100_000)
        assert not avoider._window_process.alive
        assert sim.peek() is None  # heap drained: no pending window event


class TestGammaController:
    def run_window(self, avoider, sim, ops, retries, windows=1):
        """Inject a synthetic retry rate and let the controller react."""
        def driver():
            for _ in range(windows):
                for _ in range(ops):
                    yield avoider.begin_op()
                    avoider.end_op()
                for _ in range(retries):
                    avoider.record_retry()
                yield sim.timeout(avoider.features.retry_window_ns)

        sim.spawn(driver())
        sim.run(until=sim.now + (windows + 1) * avoider.features.retry_window_ns)

    def test_high_gamma_shrinks_cmax_first(self):
        sim = Simulator()
        avoider = make_avoider(sim, initial_cmax=8)
        self.run_window(avoider, sim, ops=10, retries=90)
        assert avoider.cmax < 8
        assert avoider.t_max_ns == avoider.t0_ns  # untouched while cmax > 1

    def test_high_gamma_with_cmax_floor_doubles_tmax(self):
        sim = Simulator()
        avoider = make_avoider(sim, initial_cmax=8)
        self.run_window(avoider, sim, ops=10, retries=90, windows=6)
        assert avoider.cmax == 1
        assert avoider.t_max_ns > avoider.t0_ns

    def test_low_gamma_keeps_everything_relaxed(self):
        sim = Simulator()
        avoider = make_avoider(sim, initial_cmax=8)
        self.run_window(avoider, sim, ops=100, retries=1, windows=3)
        assert avoider.t_max_ns == avoider.t0_ns
        assert avoider.cmax >= 8

    def test_tmax_converges_high_under_sustained_contention(self):
        """The paper: t_max -> t_M = 1.6 ms for skewed updates."""
        sim = Simulator()
        avoider = make_avoider(sim, initial_cmax=4, max_coroutine_credits=16)
        self.run_window(avoider, sim, ops=5, retries=95, windows=20)
        assert avoider.t_max_ns > avoider.t0_ns * 100

    def test_tmax_never_exceeds_ceiling(self):
        sim = Simulator()
        avoider = make_avoider(sim, initial_cmax=1)
        self.run_window(avoider, sim, ops=1, retries=99, windows=30)
        assert avoider.t_max_ns <= avoider.t_big_ns

    def test_recovery_after_contention_clears(self):
        sim = Simulator()
        avoider = make_avoider(sim, initial_cmax=8)
        self.run_window(avoider, sim, ops=10, retries=90, windows=8)
        tight_tmax, tight_cmax = avoider.t_max_ns, avoider.cmax

        def calm():
            for _ in range(30):
                for _ in range(100):
                    yield avoider.begin_op()
                    avoider.end_op()
                yield sim.timeout(avoider.features.retry_window_ns)

        sim.spawn(calm())
        sim.run(until=sim.now + 40 * avoider.features.retry_window_ns)
        assert avoider.t_max_ns <= tight_tmax
        assert avoider.t_max_ns == avoider.t0_ns
        assert avoider.cmax >= tight_cmax


class TestCoroutineThrottling:
    def test_begin_op_blocks_beyond_cmax(self):
        sim = Simulator()
        avoider = make_avoider(sim, initial_cmax=2, dynamic_backoff_limit=False)
        running = []
        peak = []

        def op(duration):
            yield avoider.begin_op()
            running.append(1)
            peak.append(len(running))
            yield sim.timeout(duration)
            running.pop()
            avoider.end_op()

        for _ in range(6):
            sim.spawn(op(100))
        sim.run(until=10_000)
        avoider.stop()
        assert max(peak) == 2

    def test_disabled_throttling_admits_all(self):
        sim = Simulator()
        avoider = make_avoider(sim, coroutine_throttling=False)
        admitted = []

        def op():
            yield avoider.begin_op()
            admitted.append(sim.now)
            avoider.end_op()

        for _ in range(100):
            sim.spawn(op())
        sim.run(until=10_000)
        avoider.stop()
        assert admitted == [0] * 100

    @pytest.mark.parametrize("throttled", [False, True])
    def test_try_begin_op_admits_on_the_spot_only_when_the_tick_is_ours(
            self, throttled):
        sim = Simulator()
        avoider = make_avoider(sim, coroutine_throttling=throttled)
        seen = []

        def op(tag, at):
            yield sim.timeout(at)
            seen.append((tag, avoider.try_begin_op()))

        sim.spawn(op("lone", 5))
        sim.spawn(op("first-of-two", 9))
        sim.spawn(op("second-of-two", 9))
        sim.run(until=100)
        avoider.stop()
        assert seen == [("lone", True), ("first-of-two", False),
                        ("second-of-two", True)]
