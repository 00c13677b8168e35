"""The layer timer on a synthetic three-layer nest.

Run with ``pytest benchmarks/e2e`` (not part of tier-1).  The nest is
three throw-away modules — ``top`` calls ``mid`` calls ``low`` — holding
plain functions and ``yield from`` generators; a fake clock that only
``burn()`` advances makes every self time exact.
"""

import sys
import types

import pytest

import layers
from layers import CALLS, SELF_NS, STAMPS, LayerTimer

SOURCES = {
    "low": """
def leaf(clock, ticks):
    clock.burn(ticks)
    return ticks

def _private_leaf(clock):
    clock.burn(1)

def leaf_gen(clock, ticks):
    clock.burn(ticks)
    got = yield "low-1"
    clock.burn(ticks)
    got = yield got
    return "low-done"

def fails(clock):
    clock.burn(2)
    raise KeyError("low")
""",
    "mid": """
from nest.low import leaf, leaf_gen, fails, _private_leaf

class Middle:
    def __init__(self, clock):
        self.clock = clock
        clock.burn(1)

    def call(self, ticks):
        self.clock.burn(3)
        _private_leaf(self.clock)
        return leaf(self.clock, ticks) + 3

    def gen(self, ticks):
        self.clock.burn(3)
        result = yield from leaf_gen(self.clock, ticks)
        self.clock.burn(3)
        return result

    def guarded(self):
        try:
            fails(self.clock)
        except KeyError:
            self.clock.burn(4)
            return "caught"

    @staticmethod
    def static(clock):
        clock.burn(6)

    def __len__(self):
        return 0
""",
    "top": """
from nest.mid import Middle

def drive(clock, ticks):
    clock.burn(2)
    middle = Middle(clock)
    total = middle.call(ticks)
    clock.burn(2)
    return total

def drive_gen(clock, ticks):
    clock.burn(2)
    result = yield from Middle(clock).gen(ticks)
    clock.burn(2)
    return result
""",
}


class FakeClock:
    """Time moves only when the code under test burns it."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def burn(self, ticks):
        self.now += ticks


@pytest.fixture
def nest():
    """{layer: [module]} of a fresh synthetic package ``nest``."""
    modules = {"nest": types.ModuleType("nest")}
    sys.modules["nest"] = modules["nest"]
    for name in ("low", "mid", "top"):  # dependency order
        module = types.ModuleType(f"nest.{name}")
        sys.modules[module.__name__] = module
        exec(SOURCES[name], module.__dict__)
        modules[name] = module
    yield {name: [modules[name]] for name in ("low", "mid", "top")}
    for name in list(sys.modules):
        if name == "nest" or name.startswith("nest."):
            del sys.modules[name]


@pytest.fixture
def timed(nest):
    clock = FakeClock()
    timer = LayerTimer(clock)
    timer.install(nest)
    yield timer, clock, nest
    timer.uninstall()


def self_by_layer(timer):
    cost = layers.WrapperCost(0, 0, 0, 0)
    return {layer: row["self_ns"]
            for layer, row in layers.by_layer(timer.snapshot(), cost).items()
            if row["self_ns"]}


def test_plain_nest_self_times_sum_to_root_span(timed):
    timer, clock, nest = timed
    top = nest["top"][0]
    start = clock.now
    assert top.drive(clock, 5) == 8
    span = clock.now - start
    by_layer = self_by_layer(timer)
    # top: 2 + 2; mid: __init__ 1 + call 3; low: _private_leaf 1 + leaf 5
    assert by_layer == {"top": 4, "mid": 4, "low": 6}
    assert sum(by_layer.values()) == span == 14
    assert timer.records[("low", "nest.low.leaf")][CALLS] == 1
    assert timer.records[("low", "nest.low._private_leaf")][CALLS] == 1
    assert timer.records[("mid", "nest.mid.Middle.call")][CALLS] == 1
    assert timer.records[("mid", "nest.mid.Middle.__init__")][CALLS] == 1
    assert timer.records[("top", "nest.top.drive")][CALLS] == 1
    assert timer._stack == []


def test_generator_nest_charges_each_resume_to_the_innermost_layer(timed):
    timer, clock, nest = timed
    top = nest["top"][0]
    start = clock.now
    generator = top.drive_gen(clock, 7)
    assert generator.send(None) == "low-1"
    # While the coroutine is suspended nobody is charged.
    clock.burn(1000)
    assert generator.send("echo") == "echo"
    clock.burn(1000)
    with pytest.raises(StopIteration) as stop:
        generator.send(None)
    assert stop.value.value == "low-done"
    by_layer = self_by_layer(timer)
    # top 2 + 2; mid __init__ 1 + gen 3 + 3; low 7 + 7
    assert by_layer == {"top": 4, "mid": 7, "low": 14}
    assert sum(by_layer.values()) == clock.now - start - 2000
    outside = timer.records[layers.OUTSIDE]
    assert outside[SELF_NS] >= 2000
    for key in (("top", "nest.top.drive_gen"), ("mid", "nest.mid.Middle.gen"),
                ("low", "nest.low.leaf_gen")):
        assert timer.records[key][CALLS] == 1
        assert timer.records[key][STAMPS] == 3
    assert timer._stack == []


def test_exception_unwinds_the_stack(timed):
    timer, clock, nest = timed
    middle = nest["mid"][0].Middle(clock)
    assert middle.guarded() == "caught"
    by_layer = self_by_layer(timer)
    assert by_layer == {"mid": 1 + 4, "low": 2}
    assert timer._stack == []
    assert timer._state[0] is timer.records[layers.OUTSIDE]
    with pytest.raises(KeyError):
        nest["low"][0].fails(clock)
    assert timer._stack == []


def test_throw_reaches_the_inner_generator_and_unwinds(timed):
    timer, clock, nest = timed
    generator = nest["top"][0].drive_gen(clock, 1)
    generator.send(None)
    with pytest.raises(ValueError):
        generator.throw(ValueError("from the kernel"))
    assert timer._stack == []
    assert timer._state[0] is timer.records[layers.OUTSIDE]
    # The throw was a resume of all three generators.
    assert timer.records[("low", "nest.low.leaf_gen")][STAMPS] == 2
    assert timer.records[("top", "nest.top.drive_gen")][STAMPS] == 2


def test_closing_a_suspended_generator_closes_the_original(timed):
    timer, clock, nest = timed
    generator = nest["top"][0].drive_gen(clock, 1)
    generator.send(None)
    generator.close()
    assert timer._stack == []
    with pytest.raises(StopIteration):
        generator.send(None)


def test_discovery_skips_imports_dunders_and_counts_public(timed):
    timer, _clock, nest = timed
    names = {name for layer, name in timer.records if layer}
    # `leaf` imported into nest.mid is not a second target of layer mid ...
    assert "nest.mid.leaf" not in names
    # ... but the name is rebound there, so the call through it is timed.
    assert nest["mid"][0].leaf is nest["low"][0].leaf
    assert "nest.mid.Middle.__len__" not in names
    assert "nest.mid.Middle.static" in names
    assert "nest.low._private_leaf" in names
    assert timer.public_callables == {"low": 3, "mid": 4, "top": 2}


def test_uninstall_restores_the_original_callables(nest):
    low, mid = nest["low"][0], nest["mid"][0]
    before = {
        "leaf": low.leaf, "imported": mid.leaf, "call": mid.Middle.call,
        "static": vars(mid.Middle)["static"], "init": mid.Middle.__init__,
    }
    timer = LayerTimer(FakeClock())
    timer.install(nest)
    assert low.leaf is not before["leaf"]
    assert low.leaf.__wrapped__ is before["leaf"]
    assert isinstance(vars(mid.Middle)["static"], staticmethod)
    timer.uninstall()
    assert low.leaf is before["leaf"]
    assert mid.leaf is before["imported"]
    assert mid.Middle.call is before["call"]
    assert vars(mid.Middle)["static"] is before["static"]
    assert mid.Middle.__init__ is before["init"]


def test_real_clock_self_times_sum_to_root_span_within_one_percent(nest):
    """With the real clock and real work the table still adds up: the
    time between the first enter and the last exit is all charged."""
    import time

    timer = LayerTimer()
    timer.install(nest)
    try:
        class Spin:
            def burn(self, ticks):
                end = time.perf_counter_ns() + ticks * 200_000
                while time.perf_counter_ns() < end:
                    pass

        start = time.perf_counter_ns()
        nest["top"][0].drive(Spin(), 5)
        span = time.perf_counter_ns() - start
    finally:
        timer.uninstall()
    charged = sum(record[SELF_NS] for key, record in timer.records.items() if key[0])
    assert charged == pytest.approx(span, rel=0.01)


def test_wrapper_cost_correction():
    record = (10_000, 4, 4, 2, 1, False)
    cost = layers.WrapperCost(plain_in=100, plain_out=50, gen_in=70, gen_out=30)
    assert cost.overhead_ns(record) == 4 * 100 + 2 * 50 + 1 * 30
    assert layers.corrected_self_ns(record, cost) == 10_000 - 530
    fitted = layers.fit_to_overhead(cost, {("l", "f"): record}, 1060)
    assert fitted == cost.scaled(2.0)
    # a correction larger than the charge clamps at zero
    assert layers.corrected_self_ns((100, 4, 4, 0, 0, False), cost) == 0


def test_calibration_measures_a_positive_cost():
    cost = layers.calibrate(n=2_000, trials=3)
    assert all(value >= 0 for value in cost)
    assert cost.plain_in + cost.plain_out > 0
    assert cost.gen_in + cost.gen_out > 0
