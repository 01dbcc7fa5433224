"""Tests for the controlling window and the four generation functions.

The generator is driven through the full-recompute oracle's
``propose``, which runs the production proposal kernel and applies its
move to a copy of the placement. The kernel's inlined integer draws are
checked against the same generation functions written with the
``random.Random`` conveniences, draw for draw.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import FullRecomputeMoves

from repro.modules.library import MIXER_2X2, MIXER_2X4, MIXER_LINEAR_1X4
from repro.placement.incremental import IncrementalCostEvaluator
from repro.placement.model import PlacedModule, Placement
from repro.placement.moves import P_ROTATE, MoveGenerator
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
        mover = self.make_mover(p_single=0.0)
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
        mover = self.make_mover(p_single=1.0)
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
        mover = self.make_mover()
        for _ in range(100):
            q = mover.propose(p, 500)
            assert all(not m.rotated for m in q)
            p = q

    def test_displacement_bounded_by_window(self):
        # Square modules: a re-orientation's clamp never adds to the jump.
        p = Placement(14, 14)
        p.add(pm("a", x=1, y=1))
        p.add(pm("b", x=7, y=1, start=0, stop=5))
        p.add(pm("c", x=1, y=8, start=10, stop=13))
        window = ControllingWindow(initial_temp=1000, max_span=2)
        mover = FullRecomputeMoves(window=window, p_single=1.0, seed=3)
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


def convenience_kernel(rng, x1, y1, rot, dims, square, core_w, core_h,
                       p_single, p_rotate, single_only):
    """The four generation functions over every module, written with
    ``randrange`` and ``sample`` — the draws the kernel inlines."""
    n = len(x1)

    def limit(i, r):
        w, h = dims[i][r]
        return core_w - w + 1, core_h - h + 1

    def fits(i, r):
        mx, my = limit(i, r)
        return mx >= 1 and my >= 1

    def clamp(v, hi):
        return max(1, min(v, hi))

    def next_move(span):
        if single_only or n < 2 or rng.random() < p_single:
            i = rng.randrange(n)
            r = rot[i]
            if not square[i] and rng.random() < p_rotate and fits(i, not r):
                r = not r
            mx, my = limit(i, r)
            x = clamp(x1[i] - span + rng.randrange(2 * span + 1), mx)
            y = clamp(y1[i] - span + rng.randrange(2 * span + 1), my)
            return (i, x, y, r)
        a, b = rng.sample(range(n), 2)
        ra, rb = rot[a], rot[b]
        if rng.random() < p_rotate:
            if rng.random() < 0.5:
                if not square[a] and fits(a, not ra):
                    ra = not ra
            elif not square[b] and fits(b, not rb):
                rb = not rb
        (amx, amy), (bmx, bmy) = limit(a, ra), limit(b, rb)
        return (a, clamp(x1[b], amx), clamp(y1[b], amy), ra,
                b, clamp(x1[a], bmx), clamp(y1[a], bmy), rb)

    return next_move


@st.composite
def kernel_cases(draw):
    # 21 and 22 straddle sample()'s pool and set branches; 1 and 2 are
    # the degenerate single-module and only-pair cases.
    n = draw(st.sampled_from([1, 2, 21, 22, 100]))
    core_w = draw(st.integers(1, 16))
    core_h = draw(st.integers(1, 16))
    sides = st.integers(1, 5)
    shapes = draw(st.lists(st.tuples(sides, sides), min_size=n, max_size=n))
    dims = [((w, h), (h, w)) for w, h in shapes]
    x1 = [draw(st.integers(1, core_w)) for _ in range(n)]
    y1 = [draw(st.integers(1, core_h)) for _ in range(n)]
    rot = [draw(st.booleans()) for _ in range(n)]
    spans = draw(st.lists(st.integers(0, max(core_w, core_h)), min_size=1, max_size=40))
    return dict(
        dims=dims, x1=x1, y1=y1, rot=rot, core_w=core_w, core_h=core_h,
        square=[w == h for w, h in shapes], spans=spans,
        seed=draw(st.integers(0, 2**32)),
        p_single=draw(st.sampled_from([0.0, 0.3, 0.8, 1.0])),
        single_only=draw(st.booleans()),
    )


#: Proposals per example: enough that the rare draws — a redraw past
#: ``n`` in a 5-bit window, a repeat of the first pick — all occur.
PROPOSALS = 300


class TestKernelDraws:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_kernel_matches_randrange_and_sample(self, case):
        """The kernel's moves equal the convenience form's, draw for
        draw, and both generators end in the same state. Each move is
        applied to its own side's records so the state walks; the drawn
        spans are cycled."""
        window = ControllingWindow(initial_temp=1, max_span=1)
        rng, twin = random.Random(case["seed"]), random.Random(case["seed"])
        mine = {k: list(case[k]) for k in ("x1", "y1", "rot")}
        theirs = {k: list(case[k]) for k in ("x1", "y1", "rot")}
        static = (case["dims"], case["square"], case["core_w"], case["core_h"])
        options = dict(p_single=case["p_single"], single_only=case["single_only"])
        kernel = MoveGenerator(window=window, seed=rng, **options)._kernel(
            range(len(case["x1"])), mine["x1"], mine["y1"], mine["rot"], *static
        )
        reference = convenience_kernel(
            twin, theirs["x1"], theirs["y1"], theirs["rot"], *static,
            p_rotate=P_ROTATE, **options
        )
        spans = case["spans"]
        for step in range(PROPOSALS):
            span = spans[step % len(spans)]
            move = kernel(span)
            assert move == reference(span)
            for side in (mine, theirs):
                for k in range(0, len(move), 4):
                    i, x, y, r = move[k:k + 4]
                    side["x1"][i], side["y1"][i], side["rot"][i] = x, y, r
        assert rng.getstate() == twin.getstate()

    def test_rng_drawing_integers_from_random_rejected(self):
        """A subclass overriding only ``random()`` draws its integers
        from ``random()``, not ``getrandbits``: the inlined draws would
        silently diverge from its ``randrange``, so bind refuses it."""

        class FromRandom(random.Random):
            def random(self):
                return super().random()

        assert FromRandom._randbelow is not random.Random._randbelow_with_getrandbits
        window = ControllingWindow(initial_temp=1000, max_span=10)
        evaluator = IncrementalCostEvaluator(three_module_placement())
        with pytest.raises(TypeError, match="getrandbits"):
            MoveGenerator(window=window, seed=FromRandom(3)).bind(evaluator)

    def test_subclass_keeping_the_stdlib_draws_accepted(self):
        class Plain(random.Random):
            pass

        window = ControllingWindow(initial_temp=1000, max_span=10)
        evaluator = IncrementalCostEvaluator(three_module_placement())
        ours = MoveGenerator(window=window, seed=Plain(3)).bind(evaluator)
        stock = MoveGenerator(window=window, seed=random.Random(3)).bind(evaluator)
        assert [ours(4) for _ in range(50)] == [stock(4) for _ in range(50)]
