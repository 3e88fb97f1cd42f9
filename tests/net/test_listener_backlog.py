"""The Listener's accept backlog: unbounded, drained by accept()."""

from repro.core import Frontend, NodeRuntime, RuntimeConfig
from repro.net.socket import Listener, connect
from repro.sim import Environment
from repro.simcuda import CudaDriver, TESLA_C2050


def test_accepting_drains_the_backlog_and_reopens_it():
    env = Environment()
    listener = Listener(env, name="srv")
    connect(env, listener, client_name="c1")
    got = {}

    def server():
        got["sock"] = yield listener.accept()

    env.process(server())
    env.run()
    assert got["sock"].peer_name == "c1"
    assert listener.backlog == 0
    # Accepted: a new connection queues again.
    connect(env, listener, client_name="c2")
    assert listener.backlog == 1


def test_default_backlog_is_unbounded():
    env = Environment()
    listener = Listener(env, name="srv")
    for i in range(50):
        connect(env, listener, client_name=f"c{i}")
    assert listener.backlog == 50


def test_runtime_under_backlog_serves_normally():
    env = Environment()
    driver = CudaDriver(env, [TESLA_C2050])
    runtime = NodeRuntime(env, driver, RuntimeConfig())
    env.process(runtime.start())
    done = []

    def app(name):
        fe = Frontend(env, runtime.listener, name=name)
        yield from fe.open()
        yield from fe.cuda_thread_exit()
        done.append(name)

    for i in range(3):
        env.process(app(f"a{i}"))
    env.run()
    assert len(done) == 3
    assert runtime.metrics.snapshot()["listener_backlog"] == 0
