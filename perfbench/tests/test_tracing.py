"""Self-time arithmetic of the span recorder, on a hand-driven clock."""

import pytest

from tracing import OTHER, ROOT, SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Owner:
    def tick(self):
        pass


def test_nested_spans_subtract_their_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf = recorder.wrap(leaf, "leaf")

    def inner():
        clock.now += 4.0
        leaf()

    inner = recorder.wrap(inner, "inner")

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 3.0

    outer = recorder.wrap(outer, "outer")
    recorder.start()
    outer()
    clock.now += 0.5
    assert recorder.stop() == 10.5
    assert recorder.self_seconds("outer") == 4.0
    assert recorder.self_seconds("inner") == 4.0
    assert recorder.self_seconds("leaf") == 2.0
    assert recorder.self_seconds(ROOT) == 0.5
    assert recorder.call_count("inner") == 1
    assert recorder.coverage() == pytest.approx(10.0 / 10.5)


def test_wrapped_function_records_a_span_and_passes_errors_through():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def work(step, fail=False):
        clock.now += step
        if fail:
            raise ValueError("bad input")
        return step * 2

    traced = recorder.wrap(work, "layer")
    recorder.start()
    assert traced(1.5) == 3.0
    with pytest.raises(ValueError):
        traced(0.5, fail=True)
    recorder.stop()
    assert recorder.self_seconds("layer") == 2.0
    assert recorder.call_count("layer") == 2


def test_routed_wrapper_picks_the_layer_from_the_instance_type():
    class Bot:
        def handle(self):
            clock.now += 1.0

    class Sensor(Bot):
        pass

    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    handle = recorder.wrap_routed(
        Bot.handle, lambda owner: "sensor" if issubclass(owner, Sensor) else "bot"
    )
    recorder.start()
    handle(Bot())
    handle(Sensor())
    handle(Sensor())
    recorder.stop()
    assert recorder.self_seconds("bot") == 1.0
    assert recorder.self_seconds("sensor") == 2.0


# In the callback tests, ``dispatch`` runs inside a span of layer
# ``sim``, the way ``Scheduler.run_until`` runs callbacks.


def test_callback_without_child_spans_gets_its_whole_duration():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock, classify=lambda owner: "tick")

    def dispatch():
        clock.now += 0.25  # dispatch overhead
        clock.now += 2.0
        recorder.record(Owner().tick, 2.0)

    recorder.start()
    recorder.wrap(dispatch, "sim")()
    recorder.stop()
    assert recorder.self_seconds("tick") == 2.0
    assert recorder.self_seconds("sim") == 0.25


def test_callback_children_are_subtracted_from_the_callback():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock, classify=lambda owner: "tick")

    def encode():
        clock.now += 3.0

    encode = recorder.wrap(encode, "codec")

    def dispatch():
        clock.now += 1.0  # the callback runs ...
        encode()  # ... and calls into another layer
        recorder.record(Owner().tick, 4.0)
        clock.now += 0.5
        recorder.record(Owner().tick, 0.5)  # a second callback, no children

    recorder.start()
    recorder.wrap(dispatch, "sim")()
    recorder.stop()
    assert recorder.self_seconds("codec") == 3.0
    assert recorder.self_seconds("tick") == 1.5
    assert recorder.self_seconds("sim") == 0.0
    assert recorder.call_count("tick") == 2


def test_self_time_never_goes_negative():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock, classify=lambda owner: "tick")

    def encode():
        clock.now += 1.0

    encode = recorder.wrap(encode, "codec")

    def dispatch():
        encode()
        # A callback reported shorter than the span inside it, and a
        # dispatcher whose callbacks outlast it: clock skew between two
        # readers, which must clamp at zero rather than go negative.
        recorder.record(Owner().tick, 0.75)
        recorder.record(Owner().tick, 5.0)

    recorder.start()
    recorder.wrap(dispatch, "sim")()
    recorder.stop()
    assert recorder.self_seconds("tick") == 5.0
    assert recorder.self_seconds("sim") == 0.0
    assert all(seconds >= 0.0 for seconds in recorder.self_s)


def test_unclassified_callbacks_do_not_count_as_covered():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def dispatch():
        clock.now += 1.0
        recorder.record(lambda: None, 1.0)

    recorder.start()
    recorder.wrap(dispatch, "sim")()
    recorder.stop()
    assert recorder.self_seconds(OTHER) == 1.0
    assert recorder.coverage() == 0.0
