"""RuntimeConfig documents every field it has, and only those, and
rejects a field set where it cannot act."""

import dataclasses
import re

import pytest

from repro.core import RuntimeConfig

MIB = 1024**2


def _documented_names():
    """Names of the entries in the docstring's ``Attributes`` section; an
    entry may document several fields as ``a / b:``."""
    section = RuntimeConfig.__doc__.split("Attributes\n    ----------\n", 1)[1]
    names = []
    for line in section.splitlines():
        match = re.fullmatch(r"    (\w[\w /]*):", line)
        if match:
            names.extend(name.strip() for name in match.group(1).split("/"))
    return names


def test_docstring_attributes_name_exactly_the_fields():
    documented = _documented_names()
    assert len(documented) == len(set(documented)), "a field is documented twice"
    fields = {f.name for f in dataclasses.fields(RuntimeConfig)}
    assert set(documented) == fields


def _entry(name):
    """The docstring text documenting field ``name``."""
    section = RuntimeConfig.__doc__.split("Attributes\n    ----------\n", 1)[1]
    match = re.search(rf"^    {name}:\n((?:        .*\n|\n)*)", section, re.M)
    return " ".join(match.group(1).split())


@pytest.mark.parametrize("kwargs, field, needs", [
    # Each rule: a field moved off its default where it cannot act.
    (dict(eviction_policy="cost_aware", locality_binding=True),
     "eviction_policy", "eviction_mode"),
    (dict(eviction_policy="cost_aware", eviction_mode="partial"),
     "eviction_policy", "locality_binding"),
    (dict(offload_load_margin=2.0), "offload_load_margin", "offload_enabled"),
    # What benches and perfbench build still constructs: fig8_paged ...
    (dict(vgpus_per_device=4, swap_chunk_bytes=64 * MIB, eviction_mode="partial",
          eviction_policy="cost_aware", policy="locality", locality_binding=True),
     None, None),
    # ... and the offload-ablation margins.
    *[(dict(vgpus_per_device=4, offload_enabled=True, offload_load_margin=m),
       None, None) for m in (0.25, 0.5, 1.0, 2.0, 1e9)],
])
def test_fields_act_where_they_are_set(kwargs, field, needs):
    if needs is None:
        RuntimeConfig(**kwargs)
        return
    with pytest.raises(ValueError) as exc:
        RuntimeConfig(**kwargs)
    assert f"{field}=" in str(exc.value) and f"needs {needs}=" in str(exc.value)
    assert f"needs ``{needs}" in _entry(field).lower()
