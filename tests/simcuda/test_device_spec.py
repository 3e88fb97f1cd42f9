"""A spec's sustained throughput, computed once, is the formula's value."""

import dataclasses

import pytest

from repro.simcuda import device
from repro.simcuda.device import GPUSpec

SPECS = {
    name: spec for name, spec in vars(device).items() if isinstance(spec, GPUSpec)
}


def _formula(spec):
    return spec.sm_count * spec.cores_per_sm * spec.clock_ghz * 2.0 * spec.efficiency


def test_every_registered_spec_is_covered():
    assert set(device.DEVICE_SPECS.values()) <= set(SPECS.values())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_effective_gflops_is_the_formula_bit_for_bit(name):
    spec = SPECS[name]
    assert spec.effective_gflops.hex() == _formula(spec).hex()
    # Read again: the stored value, unchanged.
    assert spec.effective_gflops.hex() == _formula(spec).hex()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_replaced_spec_gets_its_own_throughput(name):
    spec = SPECS[name]
    spec.effective_gflops  # store the original's value first
    faster = dataclasses.replace(spec, clock_ghz=spec.clock_ghz * 2)
    assert faster.effective_gflops.hex() == _formula(faster).hex()
    assert faster.effective_gflops != spec.effective_gflops
    assert faster == dataclasses.replace(spec, clock_ghz=spec.clock_ghz * 2)
