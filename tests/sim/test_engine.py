"""Unit tests for the event loop and core event types."""

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(5.0)
    env.run()
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_number_stops_clock_exactly():
    env = Environment()
    env.timeout(3.0)
    env.timeout(10.0)
    env.run(until=7.0)
    assert env.now == 7.0


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_events_fire_in_time_order():
    env = Environment()
    fired = []
    for delay in (5.0, 1.0, 3.0):
        env.timeout(delay).add_callback(lambda ev, d=delay: fired.append(d))
    env.run()
    assert fired == [1.0, 3.0, 5.0]


def test_same_time_events_fire_in_insertion_order():
    env = Environment()
    fired = []
    for i in range(10):
        env.timeout(1.0).add_callback(lambda ev, i=i: fired.append(i))
    env.run()
    assert fired == list(range(10))


def test_event_value():
    env = Environment()
    ev = env.event()
    ev.succeed(42)
    env.run()
    assert ev.ok and ev.value == 42


def test_event_double_succeed_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_pending_event_value_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_undefused_failure_propagates():
    env = Environment()
    env.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_defused_failure_is_swallowed():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    ev.defuse()
    env.run()
    assert not ev.ok


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_callback_added_after_processing_still_runs():
    env = Environment()
    ev = env.timeout(1.0, value="late")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    env.run()
    assert seen == ["late"]


def test_run_until_event_returns_value():
    env = Environment()
    ev = env.timeout(2.0, value="payload")
    assert env.run(until=ev) == "payload"
    assert env.now == 2.0


def test_run_until_never_fired_event_raises():
    env = Environment()
    target = env.event()  # never settled
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=target)


def test_step_on_empty_heap_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4.5)
    assert env.peek() == 4.5


def test_event_count_increments():
    env = Environment()
    for _ in range(7):
        env.timeout(1.0)
    env.run()
    assert env.event_count == 7


class TestAnyOf:
    def test_fires_on_first(self):
        env = Environment()
        a, b = env.timeout(1.0, "a"), env.timeout(2.0, "b")
        cond = AnyOf(env, [a, b])
        env.run(until=cond)
        assert env.now == 1.0
        assert list(cond.value.values()) == ["a"]

    def test_empty_fires_immediately(self):
        env = Environment()
        cond = AnyOf(env, [])
        env.run()
        assert cond.triggered and cond.value == {}

    def test_failure_propagates(self):
        env = Environment()
        bad = env.event()
        bad.fail(ValueError("x"))
        cond = AnyOf(env, [bad, env.timeout(5.0)])
        cond.defuse()
        env.run(until=5.0)
        assert not cond.ok


class TestAllOf:
    def test_waits_for_all(self):
        env = Environment()
        a, b = env.timeout(1.0, "a"), env.timeout(2.0, "b")
        cond = AllOf(env, [a, b])
        env.run(until=cond)
        assert env.now == 2.0
        assert set(cond.value.values()) == {"a", "b"}

    def test_cross_environment_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [env2.timeout(1.0)])


def test_timeout_is_event_subclass():
    env = Environment()
    assert isinstance(env.timeout(0.0), Event)
    assert isinstance(env.timeout(0.0), Timeout)


# -- the run loop: every stop condition, with and without hooks ---------------
class _Beats:
    """Heartbeat stand-in: records every cadence check."""

    def __init__(self):
        self.ticks = []

    def tick(self, sim_now, events):
        self.ticks.append((sim_now, events))


def _scripted(env):
    """Timers (one with no subscriber, one exactly at the 6.0 horizon),
    a cancelled timer, a failure a process catches, a late timer;
    returns the callback log and the process."""
    log = []

    def record(tag):
        return lambda _ev: log.append((tag, env.now))

    env.timeout(0.5)  # processed, runs no callback
    env.timeout(1.0).add_callback(record("t1"))
    env.timeout(2.0).add_callback(record("t2"))
    stale = env.timeout(3.0)
    stale.add_callback(record("stale"))
    stale.cancel()  # a tombstone: pops silently, never counted

    def body():
        log.append(("start", env.now))
        failing = env.event()
        env.timeout(4.0).add_callback(
            lambda _ev: failing.fail(ValueError("boom")))
        try:
            yield failing
        except ValueError:
            log.append(("caught", env.now))
        yield env.timeout(1.0)
        log.append(("end", env.now))
        return "done"

    proc = env.process(body())
    env.timeout(6.0).add_callback(record("t6"))
    env.timeout(10.0).add_callback(record("late"))
    return log, proc


def _hooked_env(hook):
    env = Environment()
    beats = None
    if hook == "obs_tally":
        env.obs_tally = {}
    elif hook == "heartbeat":
        beats = env.heartbeat = _Beats()
    return env, beats


#: until kind -> (event_count, final now, return value)
_EXPECTED = {
    "none": (8, 10.0, None),
    "horizon": (7, 6.0, None),
    "event": (7, 5.0, "done"),
}


@pytest.mark.parametrize("hook", ["bare", "obs_tally", "heartbeat"])
@pytest.mark.parametrize("until", ["none", "horizon", "event"])
def test_run_loop_agrees_across_stop_conditions_and_hooks(
        until, hook, monkeypatch):
    monkeypatch.setattr(Environment, "_HB_STRIDE", 2)
    env, beats = _hooked_env(hook)
    log, proc = _scripted(env)
    target = {"none": None, "horizon": 6.0, "event": proc}[until]
    value = env.run(until=target)
    assert (env.event_count, env.now, value) == _EXPECTED[until]
    expected_log = [("start", 0.0), ("t1", 1.0), ("t2", 2.0),
                    ("caught", 4.0), ("end", 5.0)]
    if until != "event":
        expected_log.append(("t6", 6.0))
    if until == "none":
        expected_log.append(("late", 10.0))
    assert log == expected_log
    if hook == "obs_tally":
        # The tally counts exactly what event_count counts: the
        # cancelled timer is in neither.
        assert sum(env.obs_tally.values()) == env.event_count
        assert env.obs_tally == {
            "none": {"Timeout": 7, "Event": 1},
            "horizon": {"Timeout": 6, "Event": 1},
            "event": {"Timeout": 5, "Event": 1, "Process": 1},
        }[until]
    if hook == "heartbeat":
        # One check at loop entry, then one per stride of processed
        # events, each reporting the running processed count.
        assert beats.ticks[0] == (0.0, 0)
        counts = [n for _t, n in beats.ticks[1:]]
        assert counts == list(range(2, env.event_count + 1, 2))


@pytest.mark.parametrize("hook", ["bare", "obs_tally", "heartbeat"])
@pytest.mark.parametrize("until", ["none", "horizon", "event"])
def test_run_loop_raises_an_undefused_failure_the_same_way(until, hook):
    env, _beats = _hooked_env(hook)
    orphan = env.event()
    env.timeout(1.0).add_callback(lambda _ev: None)
    env.timeout(2.0).add_callback(
        lambda _ev: orphan.fail(RuntimeError("nobody waits")))
    stale = env.timeout(1.5)
    stale.cancel()
    sentinel = env.timeout(50.0)
    target = {"none": None, "horizon": 20.0, "event": sentinel}[until]
    with pytest.raises(RuntimeError, match="nobody waits"):
        env.run(until=target)
    # Processed: the two timers and the failed event; not the tombstone.
    assert (env.event_count, env.now) == (3, 2.0)
