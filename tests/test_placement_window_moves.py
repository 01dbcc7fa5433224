"""Tests for the controlling window and the four generation functions.

The generator is driven through the full-recompute oracle's
``propose``, which runs the production proposal kernel and applies its
move to a copy of the placement.
"""

import pytest
from oracles import FullRecomputeMoves

from repro.modules.library import MIXER_2X2, MIXER_2X4, MIXER_LINEAR_1X4
from repro.placement.model import PlacedModule, Placement
from repro.placement.moves import MoveGenerator
from repro.placement.window import ControllingWindow


def pm(op, spec=MIXER_2X2, x=1, y=1, start=0.0, stop=10.0, rotated=False):
    return PlacedModule(op_id=op, spec=spec, x=x, y=y, start=start, stop=stop, rotated=rotated)


def three_module_placement() -> Placement:
    p = Placement(14, 14)
    p.add(pm("a", x=1, y=1))
    p.add(pm("b", spec=MIXER_LINEAR_1X4, x=7, y=1, start=0, stop=5))
    p.add(pm("c", spec=MIXER_2X4, x=1, y=8, start=10, stop=13))
    return p


class TestControllingWindow:
    def test_full_span_at_initial_temp(self):
        w = ControllingWindow(initial_temp=1000, max_span=12)
        assert w.span(1000) == 12

    def test_min_span_near_zero(self):
        w = ControllingWindow(initial_temp=1000, max_span=12)
        assert w.span(1e-6) == 1
        assert w.is_frozen(1e-6)

    def test_span_monotone_in_temperature(self):
        w = ControllingWindow(initial_temp=1000, max_span=12, gamma=0.4)
        temps = [1000 * 0.9**k for k in range(60)]
        spans = [w.span(t) for t in temps]
        assert spans == sorted(spans, reverse=True)

    def test_span_clamped_above_initial_temp(self):
        w = ControllingWindow(initial_temp=1000, max_span=12)
        assert w.span(5000) == 12

    def test_gamma_controls_shrink_rate(self):
        fast = ControllingWindow(initial_temp=1000, max_span=12, gamma=1.0)
        slow = ControllingWindow(initial_temp=1000, max_span=12, gamma=0.2)
        assert fast.span(100) <= slow.span(100)

    def test_validation(self):
        with pytest.raises(ValueError):
            ControllingWindow(initial_temp=0, max_span=5)
        with pytest.raises(ValueError):
            ControllingWindow(initial_temp=10, max_span=0)
        with pytest.raises(ValueError):
            ControllingWindow(initial_temp=10, max_span=5, min_span=6)
        with pytest.raises(ValueError):
            ControllingWindow(initial_temp=10, max_span=5, gamma=0)


class TestMoveGenerator:
    def make_mover(self, **kwargs) -> FullRecomputeMoves:
        window = ControllingWindow(initial_temp=1000, max_span=10)
        defaults = dict(window=window, seed=5)
        defaults.update(kwargs)
        return FullRecomputeMoves(**defaults)

    def test_propose_returns_new_object(self):
        p = three_module_placement()
        q = self.make_mover().propose(p, 1000)
        assert q is not p

    def test_propose_does_not_mutate_original(self):
        p = three_module_placement()
        snapshot = {m.op_id: (m.x, m.y, m.rotated) for m in p}
        mover = self.make_mover()
        for _ in range(100):
            mover.propose(p, 500)
        assert {m.op_id: (m.x, m.y, m.rotated) for m in p} == snapshot

    def test_moves_stay_in_core(self):
        p = three_module_placement()
        mover = self.make_mover()
        for _ in range(300):
            q = mover.propose(p, 1000)
            for m in q:
                fp = m.footprint
                assert fp.x >= 1 and fp.y >= 1
                assert fp.x2 <= q.core_width and fp.y2 <= q.core_height
            p = q

    def test_single_only_never_swaps(self):
        p = three_module_placement()
        mover = self.make_mover(single_only=True, p_single=0.0)
        for _ in range(100):
            q = mover.propose(p, 500)
            # A swap changes exactly two modules; single moves change one.
            changed = [
                m.op_id for m in q
                if (m.x, m.y, m.rotated)
                != (p.get(m.op_id).x, p.get(m.op_id).y, p.get(m.op_id).rotated)
            ]
            assert len(changed) <= 1
            p = q

    def test_pair_interchange_occurs(self):
        p = three_module_placement()
        mover = self.make_mover(p_single=0.0, p_rotate=0.0)
        swapped = False
        for _ in range(50):
            q = mover.propose(p, 1000)
            changed = [
                m.op_id for m in q
                if (m.x, m.y) != (p.get(m.op_id).x, p.get(m.op_id).y)
            ]
            if len(changed) == 2:
                swapped = True
                break
        assert swapped

    def test_rotation_happens_for_rectangular_modules(self):
        p = three_module_placement()
        mover = self.make_mover(p_single=1.0, p_rotate=1.0)
        rotated_seen = False
        for _ in range(100):
            q = mover.propose(p, 500)
            if any(m.rotated != p.get(m.op_id).rotated for m in q):
                rotated_seen = True
                break
        assert rotated_seen

    def test_square_modules_never_rotate(self):
        p = Placement(10, 10)
        p.add(pm("a"))
        p.add(pm("b", x=6, y=6))
        mover = self.make_mover(p_rotate=1.0)
        for _ in range(100):
            q = mover.propose(p, 500)
            assert all(not m.rotated for m in q)
            p = q

    def test_displacement_bounded_by_window(self):
        p = three_module_placement()
        window = ControllingWindow(initial_temp=1000, max_span=2, min_span=1)
        mover = FullRecomputeMoves(window=window, p_single=1.0, p_rotate=0.0, seed=3)
        for _ in range(200):
            q = mover.propose(p, 1000)  # span = 2 at T0
            for m in q:
                old = p.get(m.op_id)
                assert abs(m.x - old.x) <= 2 and abs(m.y - old.y) <= 2
            p = q

    def test_empty_placement_rejected(self):
        with pytest.raises(ValueError):
            self.make_mover().propose(Placement(5, 5), 100)

    def test_single_module_placement_never_swaps(self):
        p = Placement(10, 10)
        p.add(pm("solo"))
        mover = self.make_mover(p_single=0.0)  # would prefer swaps
        q = mover.propose(p, 100)
        assert len(q) == 1

    def test_parameter_validation(self):
        window = ControllingWindow(initial_temp=100, max_span=4)
        with pytest.raises(ValueError):
            MoveGenerator(window=window, p_single=1.5)
        with pytest.raises(ValueError):
            MoveGenerator(window=window, p_rotate=-0.1)

    def test_deterministic_with_seed(self):
        p = three_module_placement()
        def run(seed):
            mover = FullRecomputeMoves(
                window=ControllingWindow(initial_temp=1000, max_span=10),
                seed=seed,
            )
            cur = p
            out = []
            for _ in range(20):
                cur = mover.propose(cur, 700)
                out.append({m.op_id: (m.x, m.y, m.rotated) for m in cur})
            return out
        assert run(42) == run(42)
        assert run(42) != run(43)
