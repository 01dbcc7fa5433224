"""The compiled kernels' ``ctypes`` mirrors match their C layouts.

``repro.kernels.RoundStatic`` and ``RoundState`` declare ``_anneal.c``'s
``anneal_static`` and ``anneal_state`` a second time, as field lists.
A field added, dropped, retyped or reordered on one side only would not
raise: the kernel would read and write the wrong bytes. The C side
exports each struct's ``sizeof`` and every field's ``offsetof`` with the
field names (``anneal_layout``), and each must equal the mirror's, field
by field.

``RoutingPlan.verify`` hands ``route_verify`` an int64 buffer for the
violation record, sized on the Python side; ``_route.c`` exports the
record's field count (``route_violation_fields``), and the buffer must
hold exactly that many.
"""

from __future__ import annotations

import ctypes
from array import array

from repro import kernels
from repro.routing import plan


def test_anneal_structs_match_their_c_layouts():
    layout = array("q", bytes(8 * 64))
    names = ctypes.c_char_p()
    count = kernels.load().anneal_layout(
        layout.buffer_info()[0], len(layout), ctypes.byref(names)
    )
    assert count <= len(layout)
    values = iter(layout[:count])
    for mirror, fields in zip(
        (kernels.RoundStatic, kernels.RoundState), names.value.decode().split(";")
    ):
        fields = fields.rstrip(",").split(",")
        assert ctypes.sizeof(mirror) == next(values), mirror.__name__
        assert sorted(fields) == sorted(name for name, _ in mirror._fields_), mirror.__name__
        for field in fields:
            assert getattr(mirror, field).offset == next(values), (mirror.__name__, field)
    assert next(values, None) is None


def test_violation_buffer_matches_the_c_record():
    assert plan._VIOLATION_FIELDS == kernels.load().route_violation_fields()
