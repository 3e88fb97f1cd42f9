"""Fat binaries and symbol registration.

Before a CUDA application issues any user-visible call, the host-side
startup code registers the device machine code and symbols with the
runtime: ``__cudaRegisterFatBinary``, ``__cudaRegisterFunction``,
``__cudaRegisterVar``, ``__cudaRegisterTexture`` …  The paper's dispatcher
exploits the fact that these internal calls "are always issued to the
runtime prior to CUDA contexts' creation on the GPU" and can therefore be
serviced before application-to-GPU binding (§4.3).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional

from repro.simcuda.kernels import KernelDescriptor

__all__ = ["FatBinary"]

_fatbin_handles = itertools.count(1)


@dataclasses.dataclass
class FatBinary:
    """The device-code image of one application binary."""

    handle: int = dataclasses.field(default_factory=lambda: next(_fatbin_handles))
    functions: Dict[str, KernelDescriptor] = dataclasses.field(default_factory=dict)
    variables: List[str] = dataclasses.field(default_factory=list)
    textures: List[str] = dataclasses.field(default_factory=list)
    shared_vars: List[str] = dataclasses.field(default_factory=list)
    #: Raw PTX image, when the binary embeds one.  The runtime parses it
    #: at registration time to detect dynamic allocation / pointer
    #: nesting (§1) without trusting the application.
    ptx_source: Optional[str] = None

    @classmethod
    def from_ptx(
        cls,
        source: str,
        flops: Optional[Dict[str, float]] = None,
        default_flops: float = 1e9,
    ) -> "FatBinary":
        """Build a fat binary from PTX text, registering one kernel per
        ``.entry`` with flags derived by the PTX analyses.

        ``flops`` maps kernel names to per-launch work (the timing-model
        input a real PTX image does not carry); unmapped kernels get
        ``default_flops``.
        """
        from repro.simcuda.ptx import parse_ptx

        module = parse_ptx(source)
        fatbin = cls(ptx_source=source)
        for name, kernel in module.kernels.items():
            work = (flops or {}).get(name, default_flops)
            fatbin.register_function(kernel.to_descriptor(flops=work))
        return fatbin

    def register_function(self, descriptor: KernelDescriptor) -> None:
        if descriptor.name in self.functions:
            raise ValueError(f"function {descriptor.name!r} already registered")
        self.functions[descriptor.name] = descriptor

    def register_var(self, name: str) -> None:
        self.variables.append(name)

    def register_texture(self, name: str) -> None:
        self.textures.append(name)

    def register_shared_var(self, name: str) -> None:
        self.shared_vars.append(name)

    @property
    def needs_exclusion_from_sharing(self) -> bool:
        """True if any kernel uses device-side dynamic allocation — such
        applications are served but excluded from sharing/dynamic
        scheduling (§1)."""
        return any(fn.uses_dynamic_alloc for fn in self.functions.values())

    @property
    def has_pointer_nesting(self) -> bool:
        """True if any kernel dereferences nested pointers; these require
        nested-structure registration through the runtime API (§1)."""
        return any(fn.has_pointer_nesting for fn in self.functions.values())
