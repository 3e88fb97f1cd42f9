"""Simulator self-profiling: the SimProfiler hook in Environment.step."""

import pytest

from repro.sim import Environment, SimProfiler


def _burn(env, n, delay=1.0):
    def proc():
        for _ in range(n):
            yield env.timeout(delay)

    return proc()


def test_profiler_counts_every_processed_event():
    env = Environment()
    profiler = SimProfiler()
    profiler.attach(env)
    env.process(_burn(env, 5), name="worker0")
    env.run()
    profiler.detach()
    report = profiler.report()
    assert report["events"] == profiler.events_processed > 0
    assert report["sim_seconds"] == pytest.approx(5.0)
    assert report["wall_seconds"] > 0
    assert report["events_per_second"] > 0
    assert report["sim_seconds_per_wall_second"] > 0


def test_detach_freezes_the_clock_and_unhooks():
    env = Environment()
    profiler = SimProfiler()
    profiler.attach(env)
    env.process(_burn(env, 2), name="w")
    env.run()
    profiler.detach()
    assert env.profiler is None
    count = profiler.events_processed
    wall = profiler.report()["wall_seconds"]
    env.process(_burn(env, 3), name="w2")
    env.run()
    assert profiler.events_processed == count  # unhooked: nothing counted
    assert profiler.report()["wall_seconds"] == wall


def test_unprofiled_environment_has_no_hook():
    env = Environment()
    assert env.profiler is None
    env.process(_burn(env, 2), name="w")
    env.run()  # no profiler: step() takes the fast path


def test_reattach_accumulates_instead_of_discarding():
    """Regression: attach() called twice used to reset the wall/sim
    clocks, silently discarding everything measured so far.  A second
    attach now folds the first interval into the running totals."""
    env = Environment()
    profiler = SimProfiler()
    profiler.attach(env)
    env.process(_burn(env, 3), name="w")
    env.run()
    first = profiler.report()
    assert first["sim_seconds"] == pytest.approx(3.0)

    profiler.attach(env)  # second attach: must not discard the 3 s
    env.process(_burn(env, 2), name="w")
    env.run()
    profiler.detach()
    report = profiler.report()
    assert report["sim_seconds"] == pytest.approx(5.0)
    assert report["wall_seconds"] >= first["wall_seconds"]
    assert report["events"] == profiler.events_processed


def test_reattach_to_fresh_environment_keeps_totals():
    env1 = Environment()
    profiler = SimProfiler()
    profiler.attach(env1)
    env1.process(_burn(env1, 4), name="w")
    env1.run()

    env2 = Environment()
    profiler.attach(env2)  # implicitly detaches from env1
    assert env1.profiler is None
    env2.process(_burn(env2, 6), name="w")
    env2.run()
    profiler.detach()
    assert profiler.report()["sim_seconds"] == pytest.approx(10.0)
