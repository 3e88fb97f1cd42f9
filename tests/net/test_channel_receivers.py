"""A channel's own message FIFO and receiver FIFO.

A receiver that gives up waiting leaves the receiver FIFO, so it cannot
swallow a later message; a message is granted inline only when nothing
else is due at that instant, as ``Store.get`` grants an item.
"""

from repro.net import AFUNIX_LINK, Channel, LinkSpec
from repro.sim import Environment, Interrupt

#: Zero transmit time: a message posted at t lands at exactly t + 0.5.
LINK = LinkSpec(name="t", latency_s=0.5, bandwidth_bps=1e9)


def test_interrupted_receiver_does_not_swallow_the_next_message():
    env = Environment()
    ch = Channel(env, LINK)
    got = []

    def impatient():
        try:
            yield ch.recv()
        except Interrupt:
            got.append(("interrupted", env.now))

    def patient():
        yield env.timeout(1)
        got.append(((yield ch.recv()), env.now))

    victim = env.process(impatient())
    env.process(patient())

    def driver():
        yield env.timeout(0.5)
        victim.interrupt()
        yield env.timeout(1)
        ch.post("m")

    env.process(driver())
    env.run()
    assert got == [("interrupted", 0.5), ("m", 2.0)]
    assert ch.pending == 0
    assert not ch._receivers


def test_receiver_that_lost_an_any_of_leaves_the_message_queued():
    env = Environment()
    ch = Channel(env, LINK)
    got = []

    def waiter():
        winner = yield env.any_of([env.timeout(1), ch.recv()])
        got.append(("timed out", env.now, len(winner)))
        yield env.timeout(1)
        got.append(((yield ch.recv()), env.now))

    env.process(waiter())

    def driver():
        yield env.timeout(1.2)
        ch.post("m")

    env.process(driver())
    env.run()
    assert got == [("timed out", 1, 1), ("m", 2)]
    assert not ch._receivers


def _arrival_order(company: bool):
    """A receiver waits; a message lands at 0.5, and with ``company``
    another process's timeout falls due at that same instant, scheduled
    after the delivery."""
    env = Environment()
    ch = Channel(env, LINK)
    order = []

    def receiver():
        order.append(("recv", (yield ch.recv()), env.now))

    def other():
        yield env.timeout(0.5)
        order.append(("other", env.now))

    env.process(receiver())
    env.run()
    ch.post("m")
    if company:
        env.process(other())
    env.run()
    return order


def test_delivery_with_same_time_company_wakes_the_receiver_through_the_heap():
    # Inline, the receiver would run inside the delivery, before the
    # timeout that is due at the same instant.
    assert _arrival_order(company=True) == [("other", 0.5), ("recv", "m", 0.5)]
    assert _arrival_order(company=False) == [("recv", "m", 0.5)]


def test_queued_message_is_granted_through_the_heap_under_same_time_company():
    env = Environment()
    ch = Channel(env, LINK)
    ch.post("m")
    env.run()
    assert ch.pending == 1
    order = []

    def reader():
        yield env.timeout(1)
        event = ch.recv()
        order.append(("granted inline", event.processed))
        order.append(((yield event), env.now))

    def other():
        yield env.timeout(1)
        order.append(("other", env.now))

    env.process(reader())
    env.process(other())
    env.run()
    assert order == [("granted inline", False), ("other", 1.5), ("m", 1.5)]


def test_queued_message_is_granted_inline_when_nothing_else_is_due():
    env = Environment()
    ch = Channel(env, LINK)
    ch.post("m")
    env.run()
    event = ch.recv()
    assert event.processed and event.value == "m"
    assert ch.pending == 0


def test_try_recv_pending_and_fifo_order_over_many_messages():
    env = Environment()
    ch = Channel(env, AFUNIX_LINK)
    count = 300

    def sender():
        for i in range(count):
            yield from ch.send(i, nbytes=i)

    env.process(sender())
    env.run()
    assert ch.pending == count
    assert ch.messages_sent == count
    assert [ch.try_recv() for _ in range(count // 2)] == list(range(count // 2))
    assert ch.pending == count - count // 2
    received = []

    def receiver():
        while True:
            received.append((yield ch.recv()))

    env.process(receiver())
    env.run()
    assert received == list(range(count // 2, count))
    assert ch.pending == 0 and ch.try_recv() is None


def test_waiting_receivers_are_served_in_arrival_order():
    env = Environment()
    ch = Channel(env, AFUNIX_LINK)
    got = []

    def receiver(name):
        got.append((name, (yield ch.recv())))

    for name in "abc":
        env.process(receiver(name))

    def sender():
        for i in range(3):
            yield from ch.send(i)

    env.process(sender())
    env.run()
    assert got == [("a", 0), ("b", 1), ("c", 2)]
