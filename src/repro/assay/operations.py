"""Assay operation vocabulary.

Each node of a sequencing graph is an :class:`Operation`. Reconfigurable
operations (mix, dilute, store, detect) are later bound to virtual
modules and placed; non-reconfigurable operations (dispense, output)
happen at boundary ports and occupy no array interior.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.modules.kinds import ModuleKind


class OperationType(enum.Enum):
    """What an assay step does to its droplets."""

    #: Meter a droplet from a boundary reservoir onto the array.
    DISPENSE = "dispense"
    #: Merge two droplets and mix to homogeneity.
    MIX = "mix"
    #: Mix sample with buffer at a ratio (concentration change).
    DILUTE = "dilute"
    #: Hold a droplet until its consumer is ready.
    STORE = "store"
    #: Optical / electrochemical measurement of a droplet.
    DETECT = "detect"
    #: Transport the droplet to an output port / waste.
    OUTPUT = "output"

    @property
    def is_reconfigurable(self) -> bool:
        """True if the operation runs on a placed virtual module.

        Dispense and output happen at fixed boundary ports; everything
        else can be mapped to any group of cells (paper Section 3:
        "cells ... can be used for storage, functional operations, as
        well as for transporting fluid droplets").
        """
        return self in (
            OperationType.MIX,
            OperationType.DILUTE,
            OperationType.STORE,
            OperationType.DETECT,
        )

    @property
    def module_kind(self) -> ModuleKind | None:
        """The library kind that can host this operation (None for ports)."""
        return {
            OperationType.MIX: ModuleKind.MIXER,
            OperationType.DILUTE: ModuleKind.DILUTER,
            OperationType.STORE: ModuleKind.STORAGE,
            OperationType.DETECT: ModuleKind.DETECTOR,
            OperationType.DISPENSE: ModuleKind.DISPENSER,
            OperationType.OUTPUT: ModuleKind.SINK,
        }.get(self)


@dataclass(frozen=True)
class Operation:
    """A node of the sequencing graph."""

    id: str
    type: OperationType
    #: Human-readable label ("mix primer with template").
    label: str = ""
    #: Requested module spec name (e.g. Table 1's explicit binding);
    #: ``None`` lets the binder pick from the library by kind.
    hardware: str | None = None
    #: Duration override in seconds; ``None`` uses the bound spec's nominal.
    duration_s: float | None = None
    #: Reagent names, concentrations, etc. — carried for reporting.
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("operation id must be non-empty")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError(
                f"operation {self.id}: duration must be positive, got {self.duration_s}"
            )

    def __str__(self) -> str:
        return f"{self.id}({self.type.value})"
