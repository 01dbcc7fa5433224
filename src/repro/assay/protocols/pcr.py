"""The PCR mixing stage — the paper's case study (Figure 5, Table 1).

Polymerase chain reaction amplifies DNA through thermal cycles; before
cycling, eight reagents (Tris-HCl buffer, KCl, gelatin, the dNTP mix,
two primers, Taq polymerase / beosynthase, and the template DNA /
AmpliTaq) are combined pairwise. The mixing stage is therefore a
balanced binary tree of seven mix operations:

    M1 = mix(buffer,   KCl)        M2 = mix(gelatin,  dNTP)
    M3 = mix(primer-f, primer-r)   M4 = mix(Taq,      template)
    M5 = mix(M1, M2)   M6 = mix(M3, M4)   M7 = mix(M5, M6)

Table 1 of the paper fixes the resource binding: which mixer geometry
(and hence footprint and mixing time) each operation uses. That binding
is reproduced verbatim in :data:`PCR_BINDING`.
"""

from __future__ import annotations

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType

#: Paper Table 1 — operation -> module spec name in the standard library.
#: (M1: 2x2 array/4x4 cells/10 s, M2: linear/3x6/5 s, M3: 2x3/4x5/6 s,
#:  M4: linear/3x6/5 s, M5: linear/3x6/5 s, M6: 2x2/4x4/10 s,
#:  M7: 2x4/4x6/3 s.)
PCR_BINDING: dict[str, str] = {
    "M1": "mixer-2x2",
    "M2": "mixer-linear-1x4",
    "M3": "mixer-2x3",
    "M4": "mixer-linear-1x4",
    "M5": "mixer-linear-1x4",
    "M6": "mixer-2x2",
    "M7": "mixer-2x4",
}

#: The eight PCR reagents feeding the leaf mixes, in leaf order.
PCR_REAGENTS: tuple[tuple[str, str], ...] = (
    ("tris-hcl", "KCl"),
    ("gelatin", "dNTP"),
    ("primer-f", "primer-r"),
    ("taq", "template-DNA"),
)


def build_pcr_mixing_graph() -> SequencingGraph:
    """The seven-node mixing tree exactly as placed in the paper.

    Dispense/output steps are omitted because the paper's placement
    problem covers only the reconfigurable mix modules.
    """
    g = SequencingGraph(name="pcr-mixing-stage")
    for op_id, hardware in PCR_BINDING.items():
        reagents = {}
        leaf_index = int(op_id[1]) - 1
        if leaf_index < 4:
            left, right = PCR_REAGENTS[leaf_index]
            reagents = {"reagents": (left, right)}
        g.add_operation(
            Operation(
                op_id,
                OperationType.MIX,
                label=f"PCR mix {op_id}",
                hardware=hardware,
                params=reagents,
            )
        )
    g.add_dependency("M1", "M5")
    g.add_dependency("M2", "M5")
    g.add_dependency("M3", "M6")
    g.add_dependency("M4", "M6")
    g.add_dependency("M5", "M7")
    g.add_dependency("M6", "M7")
    g.validate()
    return g
