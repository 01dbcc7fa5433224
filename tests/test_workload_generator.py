"""Property tests for the parameterized workload generators.

The generators promise three things the campaign layer builds on:
determinism (same seed, identical graph — ids, edges, everything),
structural validity (a DAG with exact operation arities and no loose
droplets), and synthesizability (any requested module budget in the
designed band binds and schedules through the existing pipeline).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.assay import check_invariants

from repro.assay.catalog import build_assay, is_generator_spec

from repro.synthesis.binder import ResourceBinder
from repro.synthesis.scheduler import list_schedule
from repro.workload.generator import (
    GENERATOR_FAMILIES,
    MIN_MODULES,
    GeneratorSpec,
    generate,
)

FAMILIES = sorted(GENERATOR_FAMILIES)

family_st = st.sampled_from(FAMILIES)


def graph_fingerprint(g):
    """Everything the determinism contract covers, as comparable data."""
    ops = tuple(
        (op.id, op.type.value, op.label, op.hardware)
        for op in sorted(g.operations(), key=lambda o: o.id)
    )
    edges = tuple(
        (u, v) for u in sorted(o.id for o in g.operations())
        for v in g.successors(u)
    )
    return ops, edges


class TestDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(family=family_st, n=st.integers(MIN_MODULES, 80),
           seed=st.integers(0, 2**32 - 1))
    def test_same_seed_identical_graph(self, family, n, seed):
        spec = f"gen:{family}:n={n}:seed={seed}"
        assert graph_fingerprint(generate(spec)) == graph_fingerprint(
            generate(spec)
        )

    def test_different_seeds_differ(self):
        # Not guaranteed per-family for tiny n, but mix-tree topology
        # at n=50 has astronomically many draws; equality would mean
        # the rng is not actually consulted.
        a = generate("gen:mix-tree:n=50:seed=1")
        b = generate("gen:mix-tree:n=50:seed=2")
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_canonical_spec_roundtrip(self):
        spec = GeneratorSpec.parse("gen:panel:seed=3:n=24")
        assert spec.canonical() == "gen:panel:n=24:seed=3"
        assert GeneratorSpec.parse(spec.canonical()) == spec

    @pytest.mark.parametrize("family", FAMILIES)
    def test_catalog_builds_the_rendered_spec(self, family):
        # The generator renders specs with the catalog's prefix, so the
        # catalog routes every rendered spec back to the generator.
        spec = GeneratorSpec(family=family, n=MIN_MODULES, seed=5)
        assert is_generator_spec(spec.canonical())
        graph, binding = build_assay(spec.canonical())
        assert binding is None
        assert graph_fingerprint(graph) == graph_fingerprint(spec.build())


class TestStructuralInvariants:
    @settings(max_examples=15, deadline=None)
    @given(family=family_st, n=st.integers(MIN_MODULES, 120),
           seed=st.integers(0, 999))
    def test_valid_dag_with_exact_arities(self, family, n, seed):
        g = generate(f"gen:{family}:n={n}:seed={seed}")
        check_invariants(g)

    @settings(max_examples=15, deadline=None)
    @given(family=family_st, n=st.integers(MIN_MODULES, 120),
           seed=st.integers(0, 999))
    def test_exact_module_budget(self, family, n, seed):
        g = generate(f"gen:{family}:n={n}:seed={seed}")
        assert len(g.reconfigurable_operations()) == n

    def test_n_out_of_band_rejected(self):
        with pytest.raises(ValueError, match="module count"):
            generate(f"gen:mix-tree:n={MIN_MODULES - 1}")
        with pytest.raises(ValueError, match="module count"):
            generate("gen:mix-tree:n=999999")


class TestSynthesizability:
    """50-500 module graphs bind and schedule through the pipeline."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [50, 500])
    def test_binds_and_schedules(self, family, n):
        g = generate(f"gen:{family}:n={n}:seed={n}")
        binding = ResourceBinder().bind(g)
        sched = list_schedule(
            g, binding.durations(), max_concurrent_ops=3, max_parked=2
        )
        assert len(sched) == len(g)
        sched.validate_precedence(g)


class TestSpecParsing:
    @pytest.mark.parametrize(
        "bad",
        [
            "gen:warp:n=50",              # unknown family
            "gen:mix-tree",               # missing n
            "gen:mix-tree:n=abc",         # non-integer
            "gen:mix-tree:n=50:n=60",     # duplicate key
            "gen:mix-tree:n=50:bogus=1",  # unknown parameter
            "gen:mix-tree:50",            # not key=value
        ],
    )
    def test_malformed_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            GeneratorSpec.parse(bad)

    def test_family_params_validated(self):
        with pytest.raises(ValueError, match="store_pct"):
            generate("gen:mix-tree:n=50:store_pct=90")
