"""Deterministic discrete-event simulation (DES) kernel.

This package is the temporal substrate for the whole reproduction: GPUs,
PCIe transfers, sockets, CPU phases, schedulers and the runtime itself all
advance on the same simulated clock.  The design is a clean-room,
generator-based process model in the style of SimPy:

- :class:`~repro.sim.core.Environment` owns the virtual clock and the
  event queue.
- :class:`~repro.sim.core.Event` is a one-shot occurrence carrying a value
  or an exception.
- :class:`~repro.sim.core.Process` wraps a Python generator; the generator
  ``yield``\\ s events and is resumed when they fire.
- :mod:`repro.sim.resources` provides capacity-limited resources, stores
  and containers.
- :mod:`repro.sim.sync` provides locks, condition variables and FIFO
  queues built on events.

Determinism: events scheduled for the same simulated time fire in strict
FIFO order of scheduling (a monotonically increasing sequence number breaks
ties), so a given program produces an identical trace on every run.
"""

from repro.sim.core import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    Waiter,
)
from repro.sim.profile import SimProfiler
from repro.sim.resources import Container, Resource, Store
from repro.sim.sync import Condition, FifoQueue, Lock
from repro.sim.rng import RngStreams

__all__ = [
    "AnyOf",
    "Condition",
    "Container",
    "Environment",
    "Event",
    "FifoQueue",
    "Interrupt",
    "Lock",
    "Process",
    "Resource",
    "RngStreams",
    "SimProfiler",
    "SimulationError",
    "Store",
    "Timeout",
    "Waiter",
]
