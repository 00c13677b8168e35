"""Tests for §4.2 adaptive work-request throttling (Algorithm 1)."""

import pytest

from repro.core.features import SmartFeatures, baseline
from repro.core.throttle import WorkRequestThrottler
from repro.sim import Simulator


def make_throttler(sim, **overrides):
    features = SmartFeatures().with_overrides(
        adaptive_credit=False, **overrides
    )
    return WorkRequestThrottler(sim, features)


class TestCredits:
    def test_take_within_cmax_is_immediate(self):
        sim = Simulator()
        throttler = make_throttler(sim, initial_cmax=8)
        fired = []

        def proc():
            yield throttler.take(8)
            fired.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert fired == [0]

    def test_take_blocks_until_completion_replenishes(self):
        sim = Simulator()
        throttler = make_throttler(sim, initial_cmax=4)
        fired = []

        def proc():
            yield throttler.take(4)
            yield throttler.take(2)
            fired.append(sim.now)

        def completer():
            yield sim.timeout(100)
            throttler.on_complete(2)

        sim.spawn(proc())
        sim.spawn(completer())
        sim.run()
        assert fired == [100]

    def test_disabled_throttler_never_blocks(self):
        sim = Simulator()
        features = baseline()
        throttler = WorkRequestThrottler(sim, features)
        fired = []

        def proc():
            yield throttler.take(1000)
            fired.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert fired == [0]

    @pytest.mark.parametrize("enabled", [False, True])
    def test_try_take_debits_on_the_spot_only_when_the_tick_is_ours(self, enabled):
        """Off or on, a free credit costs no ticket and no suspension —
        unless another step is queued at the same instant, in which case
        ``try_take`` declines (and debits nothing) so order is kept."""
        sim = Simulator()
        features = (SmartFeatures() if enabled else baseline()).with_overrides(
            adaptive_credit=False
        )
        throttler = WorkRequestThrottler(sim, features)
        before = throttler.credits.tokens
        seen = []

        def poster(tag, at):
            yield sim.timeout(at)
            seen.append((tag, throttler.try_take(2)))

        sim.spawn(poster("lone", 5))
        sim.spawn(poster("first-of-two", 9))
        sim.spawn(poster("second-of-two", 9))
        sim.run()
        assert seen == [("lone", True), ("first-of-two", False),
                        ("second-of-two", True)]
        assert throttler.credits.tokens == before - (4 if enabled else 0)

    def test_completed_counter_tracks_all_completions(self):
        sim = Simulator()
        throttler = make_throttler(sim)
        throttler.on_complete(5)
        throttler.on_complete(3)
        assert throttler.completed == 8

    def test_credits_conserved_under_mixed_traffic(self):
        sim = Simulator()
        throttler = make_throttler(sim, initial_cmax=8)

        def worker():
            for _ in range(50):
                yield throttler.take(4)
                yield sim.timeout(10)
                throttler.on_complete(4)

        for _ in range(3):
            sim.spawn(worker())
        sim.run()
        assert throttler.credits.tokens == throttler.cmax


class TestUpdateCmax:
    def test_update_cmax_shifts_pool(self):
        sim = Simulator()
        throttler = make_throttler(sim, initial_cmax=8)
        throttler.update_cmax(12)
        assert throttler.cmax == 12
        assert throttler.credits.tokens == 12

    def test_update_cmax_down_while_outstanding_goes_negative(self):
        """UpdateCMax with WRs in flight drives credit negative, throttling
        new posts until completions catch up (paper line 15 semantics)."""
        sim = Simulator()
        throttler = make_throttler(sim, initial_cmax=8)

        def proc():
            yield throttler.take(8)

        sim.spawn(proc())
        sim.run()
        throttler.update_cmax(4)
        assert throttler.credits.tokens == -4
        throttler.on_complete(8)
        assert throttler.credits.tokens == 4

    def test_update_cmax_rejects_nonpositive(self):
        sim = Simulator()
        throttler = make_throttler(sim)
        with pytest.raises(ValueError):
            throttler.update_cmax(0)


class TestEpochSearch:
    def test_epoch_picks_candidate_with_most_completions(self):
        """Drive the throttler with a synthetic workload whose throughput
        peaks at C_max = 6 and check UPDATE converges there."""
        sim = Simulator()
        features = SmartFeatures().with_overrides(
            update_delta_ns=10_000.0,
            stable_epochs=5,
            cmax_candidates=(4, 6, 8),
            initial_cmax=4,
        )
        throttler = WorkRequestThrottler(sim, features)

        def workload():
            # Completion rate peaks at credit 6: beyond that, each extra
            # outstanding WR slows everything (cache-thrash analogue).
            while True:
                yield throttler.take(1)
                in_flight = throttler.cmax - max(throttler.credits.tokens, 0)
                service = 100 if in_flight <= 6 else 300
                yield sim.timeout(service)
                throttler.on_complete(1)

        for _ in range(4):
            sim.spawn(workload())
        sim.run(until=40_000)  # within the first update phase
        sim.run(until=60_000)  # update phase over (3 candidates x 10us + slack)
        stable_values = [v for (t, v) in throttler.cmax_history if t >= 30_000]
        assert stable_values[-1] == 6

    def test_stop_ends_epoch_process(self):
        sim = Simulator()
        features = SmartFeatures().with_overrides(
            update_delta_ns=1000.0, stable_epochs=2
        )
        throttler = WorkRequestThrottler(sim, features)
        throttler.stop()
        sim.run(until=100_000)
        assert sim.peek() is None  # loop exited, heap drained
