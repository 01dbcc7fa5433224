"""Resource binding: mapping operations to module specifications.

Binding decides which virtual module geometry hosts each reconfigurable
operation — the biochip analogue of binding RTL operations to
functional units. The paper's Table 1 is an explicit binding for PCR;
for other assays the binder selects from the library by operation kind
under a strategy ("fastest" mixers shorten the schedule, "smallest"
mixers shrink the array — the classic time/area trade).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation
from repro.modules.library import ModuleLibrary, standard_library
from repro.modules.module import ModuleSpec
from repro.util.errors import BindingError


class Binding:
    """The result of resource binding: op id -> module spec (+ durations)."""

    def __init__(self, assignments: Mapping[str, ModuleSpec], graph: SequencingGraph) -> None:
        self._assignments = dict(assignments)
        self._graph = graph

    def spec_for(self, op_id: str) -> ModuleSpec:
        """The module spec bound to *op_id*."""
        try:
            return self._assignments[op_id]
        except KeyError:
            raise BindingError(f"operation {op_id!r} is not bound") from None

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._assignments

    def __len__(self) -> int:
        return len(self._assignments)

    def items(self) -> list[tuple[str, ModuleSpec]]:
        """All (op id, spec) pairs, in binding order."""
        return list(self._assignments.items())

    def duration_for(self, op_id: str) -> float:
        """Operation duration: the op's override, else the spec's nominal.

        Non-reconfigurable operations (dispense/output) have no spec;
        their duration must come from the operation itself.
        """
        op = self._graph.operation(op_id)
        if op.duration_s is not None:
            return op.duration_s
        if op_id in self._assignments:
            return self._assignments[op_id].duration_s
        raise BindingError(
            f"operation {op_id!r} has neither a bound module nor an explicit duration"
        )

    def durations(self) -> dict[str, float]:
        """Durations for every operation in the graph."""
        return {op.id: self.duration_for(op.id) for op in self._graph}

    def footprints(self) -> dict[str, int]:
        """Footprint area in cells of every bound operation."""
        return {op: spec.footprint_area for op, spec in self._assignments.items()}

    def __str__(self) -> str:
        return f"Binding({len(self._assignments)} ops)"


class ResourceBinder:
    """Binds a sequencing graph's reconfigurable operations to specs."""

    #: Pick the spec with the shortest nominal duration.
    FASTEST = "fastest"
    #: Pick the spec with the smallest footprint.
    SMALLEST = "smallest"

    def __init__(self, library: ModuleLibrary | None = None) -> None:
        self.library = library if library is not None else standard_library()

    def bind(
        self,
        graph: SequencingGraph,
        explicit: Mapping[str, str] | None = None,
        strategy: str = FASTEST,
    ) -> Binding:
        """Bind every reconfigurable operation of *graph*.

        Resolution order per operation: *explicit* map (e.g. the paper's
        Table 1), then the operation's own ``hardware`` request, then
        the library default for its kind under *strategy*.
        """
        if strategy not in (self.FASTEST, self.SMALLEST):
            raise BindingError(f"unknown binding strategy {strategy!r}")
        explicit = dict(explicit or {})
        unknown = set(explicit) - {op.id for op in graph}
        if unknown:
            raise BindingError(
                f"explicit binding names unknown operations: {sorted(unknown)}"
            )
        assignments: dict[str, ModuleSpec] = {}
        for op in graph.reconfigurable_operations():
            assignments[op.id] = self._resolve(op, explicit.get(op.id), strategy)
        return Binding(assignments, graph)

    def _resolve(
        self, op: Operation, explicit_name: str | None, strategy: str
    ) -> ModuleSpec:
        name = explicit_name or op.hardware
        if name is not None:
            try:
                spec = self.library.get(name)
            except KeyError as exc:
                raise BindingError(str(exc)) from None
            return spec
        kind = op.type.module_kind
        if kind is None:
            raise BindingError(f"operation {op.id!r} ({op.type.value}) needs no module")
        try:
            if strategy == self.SMALLEST:
                return self.library.smallest(kind)
            return self.library.fastest(kind)
        except KeyError as exc:
            raise BindingError(
                f"cannot bind {op.id!r}: {exc.args[0] if exc.args else exc}"
            ) from None
