"""Channel.post: one heap event per message, timed exactly like send."""

import pytest

from repro.net import AFUNIX_LINK, Channel, LinkSpec, TCP_10GBE_LINK
from repro.net.channel import TCP_GBE_LINK
from repro.sim import Environment, SimProfiler

LINKS = [
    AFUNIX_LINK,
    TCP_GBE_LINK,
    TCP_10GBE_LINK,
    LinkSpec(name="slow", latency_s=0.3, bandwidth_bps=7e5, per_message_overhead_s=1e-3),
]
SIZES = [0, 64, 4096, 123_457, 1 << 20]
#: An awkward start time, so the sums round.
START = 1234.567891


def _arrival(link, nbytes, post):
    """Arrival time of one message sent (or posted) at ``START``, with
    the channel's counters and the events the run processed."""
    env = Environment(initial_time=START)
    ch = Channel(env, link)
    arrived = []

    def receiver():
        while True:  # waits again, so its exit costs no event either
            arrived.append(((yield ch.recv()), env.now))

    env.process(receiver())
    env.run()  # the receiver is now waiting
    profiler = SimProfiler().attach(env)
    if post:
        ch.post("m", nbytes)
    else:
        def sender():
            yield from ch.send("m", nbytes)

        env.process(sender())
    env.run()
    [(payload, at)] = arrived
    assert payload == "m"
    return at, (ch.messages_sent, ch.bytes_sent), profiler.events_processed


@pytest.mark.parametrize("link", LINKS, ids=lambda link: link.name)
@pytest.mark.parametrize("nbytes", SIZES)
def test_post_arrives_bit_equal_to_send_in_one_event(link, nbytes):
    sent_at, sent_counts, _ = _arrival(link, nbytes, post=False)
    posted_at, posted_counts, posted_events = _arrival(link, nbytes, post=True)
    assert posted_at == sent_at  # exact: the same float expression
    assert posted_counts == sent_counts == (1, nbytes)
    assert posted_events == 1  # the delivery, which resumes the receiver


def test_send_inside_a_posted_window_raises():
    env = Environment()
    ch = Channel(env, AFUNIX_LINK)
    ch.post("a", 1 << 20)

    def sender():
        yield from ch.send("b")

    p = env.process(sender())
    with pytest.raises(RuntimeError, match="still transmitting"):
        env.run(until=p)


def test_send_after_the_posted_window_goes_through():
    env = Environment()
    link = LinkSpec(name="t", latency_s=0.5, bandwidth_bps=1e6)
    ch = Channel(env, link)
    ch.post("a", 1_000_000)  # the link is busy for 1 s

    def sender():
        yield env.timeout(1.0)
        yield from ch.send("b", 1_000_000)

    env.process(sender())
    env.run()
    assert [ch.try_recv(), ch.try_recv()] == ["a", "b"]
    assert (ch.messages_sent, ch.bytes_sent) == (2, 2_000_000)


def test_post_on_a_busy_link_raises():
    env = Environment()
    ch = Channel(env, TCP_GBE_LINK)

    def sender():
        yield from ch.send("a", 1 << 20)

    env.process(sender())
    env.run(until=1e-3)  # mid-transmission
    with pytest.raises(RuntimeError, match="busy"):
        ch.post("b")
    ch2 = Channel(env, TCP_GBE_LINK)
    ch2.post("a", 1 << 20)
    with pytest.raises(RuntimeError, match="busy"):
        ch2.post("b")


def test_post_on_a_closed_channel_raises():
    env = Environment()
    ch = Channel(env, AFUNIX_LINK)
    ch.close()
    with pytest.raises(ConnectionError):
        ch.post("x")
    assert ch.messages_sent == 0
