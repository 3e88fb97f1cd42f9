"""RuntimeConfig documents every field it has, and only those."""

import dataclasses
import re

from repro.core import RuntimeConfig


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

