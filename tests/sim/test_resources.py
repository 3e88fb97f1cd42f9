"""Unit tests for simulation resources (Resource, Container, Store)."""

import pytest

from repro.sim import Container, Environment, Resource, SimulationError, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grabbed = []

    def worker(env, name):
        req = res.request()
        yield req
        grabbed.append((env.now, name))
        yield env.timeout(10)
        res.release(req)

    for n in "abc":
        env.process(worker(env, n))
    env.run(until=1)
    assert [n for _, n in grabbed] == ["a", "b"]
    env.run()
    assert [n for _, n in grabbed] == ["a", "b", "c"]
    assert grabbed[2][0] == 10


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, name):
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for n in "abcd":
        env.process(worker(env, n))
    env.run()
    assert order == list("abcd")


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)

    def worker(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(worker(env))
    env.run()
    assert res.count == 0


def test_resource_release_cancels_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()  # granted immediately
    assert held.processed or held.triggered
    queued = res.request()
    assert queued in res.queue
    res.release(queued)  # cancel while queued
    assert queued not in res.queue
    res.release(held)
    assert res.count == 0


def test_resource_release_idempotent():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    res.release(req)
    res.release(req)  # no error
    assert res.count == 0


def test_resource_zero_capacity_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_count_tracks_users():
    env = Environment()
    res = Resource(env, capacity=3)
    reqs = [res.request() for _ in range(3)]
    assert res.count == 3
    for r in reqs:
        res.release(r)
    assert res.count == 0


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------

def test_container_put_get():
    env = Environment()
    c = Container(env, capacity=100, init=50)

    def proc(env):
        yield c.get(30)
        assert c.level == 20
        yield c.put(60)
        assert c.level == 80

    env.process(proc(env))
    env.run()


def test_container_get_blocks_until_available():
    env = Environment()
    c = Container(env, capacity=100, init=0)
    got = []

    def getter(env):
        yield c.get(10)
        got.append(env.now)

    def putter(env):
        yield env.timeout(5)
        yield c.put(10)

    env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert got == [5]


def test_container_put_blocks_when_full():
    env = Environment()
    c = Container(env, capacity=10, init=10)
    done = []

    def putter(env):
        yield c.put(5)
        done.append(env.now)

    def getter(env):
        yield env.timeout(3)
        yield c.get(5)

    env.process(putter(env))
    env.process(getter(env))
    env.run()
    assert done == [3]


def test_container_init_bounds():
    env = Environment()
    with pytest.raises(SimulationError):
        Container(env, capacity=10, init=11)
    with pytest.raises(SimulationError):
        Container(env, capacity=10, init=-1)


def test_container_negative_amount_rejected():
    env = Environment()
    c = Container(env, capacity=10)
    with pytest.raises(SimulationError):
        c.put(-1)
    with pytest.raises(SimulationError):
        c.get(-1)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo():
    env = Environment()
    s = Store(env)
    out = []

    def producer(env):
        for i in range(3):
            yield s.put(i)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield s.get()
            out.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [i for _, i in out] == [0, 1, 2]


def test_store_get_blocks_on_empty():
    env = Environment()
    s = Store(env)
    out = []

    def consumer(env):
        item = yield s.get()
        out.append((env.now, item))

    def producer(env):
        yield env.timeout(7)
        yield s.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert out == [(7, "x")]


def test_store_capacity_blocks_put():
    env = Environment()
    s = Store(env, capacity=1)
    times = []

    def producer(env):
        yield s.put("a")
        times.append(env.now)
        yield s.put("b")  # blocks until consumer takes "a"
        times.append(env.now)

    def consumer(env):
        yield env.timeout(4)
        yield s.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [0, 4]


def test_store_len():
    env = Environment()
    s = Store(env)
    s.put(1)
    s.put(2)
    assert len(s) == 2
