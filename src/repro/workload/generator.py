"""Parameterized assay generators: sequencing graphs at any scale.

Each family turns ``(explicit random.Random, params)`` into a valid
:class:`~repro.assay.graph.SequencingGraph` that binds, schedules,
places, and routes through the existing pipeline unchanged:

* ``mix-tree`` — hierarchical mixing trees with randomized topology
  (PCR's shape generalized): ``n`` reconfigurable modules split between
  binary mixes and sprinkled stores.
* ``diamond`` — chained diamond-reconvergence motifs: one droplet fans
  out into parallel mix chains that rejoin in a binary mix, the
  scheduler/placer's worst case for reconvergent slack.
* ``dilution-ladder`` — multi-reagent dilution chains in the
  Farey/bit-stream style: each target concentration ``k / 2^depth``
  (k odd — a Farey fraction of order ``2^depth``) is reached by its own
  chain of 1:1 dilutions consuming one bit of ``k`` per rung, LSB
  first, with the discarded half emitted as waste at every rung —
  the bit-stream sample-preparation recipe, one chain per target so
  storage pressure stays bounded.
* ``panel`` — multiplexed detection panels: an S x R
  (sample x reagent) grid of independent dispense-mix-detect chains,
  the embarrassingly-parallel regime.
* ``mixed`` — a composition of the four, splitting the module budget
  across randomly-drawn sub-generators and merging the results into
  one graph under prefixed operation ids.

Determinism contract: a family function consumes only the
``random.Random`` it is handed; the same seed therefore yields the
identical graph (operation ids, edges, hardware hints — everything),
which the campaign layer and the hypothesis suite both rely on.

Spec strings make generated assays addressable wherever a bundled
protocol name is accepted: ``gen:<family>:<key>=<value>:...`` (e.g.
``gen:dilution-ladder:n=128:seed=7``) parses to a
:class:`GeneratorSpec` and resolves through
:func:`repro.assay.catalog.build_assay`.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType

#: Mixer spec names cycled across generated mixes (all from the
#: standard library, so generated assays bind without custom libraries).
_MIXER_CYCLE = ("mixer-2x2", "mixer-linear-1x4", "mixer-2x3", "mixer-2x4")

#: Scale band the generators are designed (and property-tested) for.
MIN_MODULES = 8
MAX_MODULES = 2000


class _Builder:
    """Shared graph-construction plumbing for every family."""

    def __init__(self, name: str) -> None:
        self.g = SequencingGraph(name=name)
        self._counter = 0
        self.modules = 0

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def dispense(self, label: str = "") -> str:
        op = Operation(
            self._fresh("D"), OperationType.DISPENSE, label=label, duration_s=2.0
        )
        self.g.add_operation(op)
        return op.id

    def mix(self, a: str, b: str, hardware: str, label: str = "") -> str:
        op = Operation(
            self._fresh("M"), OperationType.MIX, label=label, hardware=hardware
        )
        self.g.add_operation(op)
        self.g.add_dependency(a, op)
        self.g.add_dependency(b, op)
        self.modules += 1
        return op.id

    def dilute(self, a: str, b: str, label: str = "", ratio: float | None = None) -> str:
        params = {} if ratio is None else {"ratio": ratio}
        op = Operation(
            self._fresh("DIL"), OperationType.DILUTE, label=label, params=params
        )
        self.g.add_operation(op)
        self.g.add_dependency(a, op)
        self.g.add_dependency(b, op)
        self.modules += 1
        return op.id

    def store(self, src: str, label: str = "") -> str:
        op = Operation(
            self._fresh("ST"), OperationType.STORE, label=label, duration_s=3.0
        )
        self.g.add_operation(op)
        self.g.add_dependency(src, op)
        self.modules += 1
        return op.id

    def detect(self, src: str, label: str = "") -> str:
        op = Operation(self._fresh("DET"), OperationType.DETECT, label=label)
        self.g.add_operation(op)
        self.g.add_dependency(src, op)
        self.modules += 1
        return op.id

    def output(self, src: str, label: str = "") -> str:
        op = Operation(
            self._fresh("OUT"), OperationType.OUTPUT, label=label, duration_s=1.0
        )
        self.g.add_operation(op)
        self.g.add_dependency(src, op)
        return op.id

    def finish(self, loose: list[str]) -> SequencingGraph:
        """Terminate every loose droplet at an output port and validate."""
        for src in loose:
            self.output(src)
        self.g.validate()
        return self.g


def _check_n(n: int) -> None:
    if not MIN_MODULES <= n <= MAX_MODULES:
        raise ValueError(
            f"module count n must lie in [{MIN_MODULES}, {MAX_MODULES}], got {n}"
        )


def _mixer(rng: random.Random) -> str:
    return _MIXER_CYCLE[rng.randrange(len(_MIXER_CYCLE))]


# -- mix-tree ----------------------------------------------------------------


def build_mix_tree_assay(
    rng: random.Random, n: int, store_pct: int = 15, name: str = ""
) -> SequencingGraph:
    """A randomized hierarchical mixing tree with exactly *n* modules.

    ``store_pct`` percent of the budget becomes pass-through stores
    chained after randomly chosen mixes; the rest are binary mixes
    combining a randomly drawn pair of the droplet frontier — so unlike
    :func:`repro.assay.synthetic.build_mix_tree` the hierarchy is
    irregular: deep spines and wide bushes both occur.
    """
    _check_n(n)
    if not 0 <= store_pct <= 50:
        raise ValueError(f"store_pct must lie in [0, 50], got {store_pct}")
    stores = n * store_pct // 100
    mixes = n - stores
    b = _Builder(name or f"gen-mix-tree-{n}")
    frontier = [b.dispense(f"reagent {i + 1}") for i in range(mixes + 1)]
    store_after = set(rng.sample(range(mixes), stores)) if mixes else set()
    for i in range(mixes):
        x, y = rng.sample(frontier, 2)
        frontier.remove(x)
        frontier.remove(y)
        out = b.mix(x, y, _mixer(rng), label=f"mix {i + 1}")
        if i in store_after:
            out = b.store(out, label=f"hold mix {i + 1}")
        frontier.append(out)
    # A degenerate all-store budget (mixes == 0) keeps one droplet.
    while b.modules < n:
        frontier[0] = b.store(frontier[0])
    return b.finish(frontier)


# -- diamond reconvergence ---------------------------------------------------


def build_diamond_assay(
    rng: random.Random, n: int, max_arm: int = 4, name: str = ""
) -> SequencingGraph:
    """Chained diamond motifs with exactly *n* modules.

    Each motif splits the running droplet into two parallel mix chains
    (arm lengths drawn from ``[1, max_arm]``; each hop mixes in a fresh
    reagent) that reconverge in a binary join mix — the canonical
    diamond. Motifs chain: the join droplet seeds the next diamond.
    A residual budget too small for a motif (< 3) finishes as a spine
    of single mix hops.
    """
    _check_n(n)
    if max_arm < 1:
        raise ValueError(f"max_arm must be >= 1, got {max_arm}")
    b = _Builder(name or f"gen-diamond-{n}")
    current = b.mix(
        b.dispense("sample"), b.dispense("buffer"), _mixer(rng), label="seed mix"
    )
    made = 1
    while n - made >= 3:
        cap = n - made - 1  # leave room for the join mix
        arm_a = rng.randint(1, min(max_arm, cap - 1))
        arm_b = rng.randint(1, min(max_arm, cap - arm_a))
        ends = []
        for arm, hops in (("a", arm_a), ("b", arm_b)):
            d = current
            for h in range(hops):
                d = b.mix(
                    d, b.dispense(), _mixer(rng), label=f"arm {arm} hop {h + 1}"
                )
            ends.append(d)
        current = b.mix(ends[0], ends[1], _mixer(rng), label="rejoin")
        made += arm_a + arm_b + 1
    while made < n:
        current = b.mix(current, b.dispense(), _mixer(rng), label="tail mix")
        made += 1
    return b.finish([current])


# -- Farey / bit-stream dilution ladders -------------------------------------


def build_dilution_ladder_assay(
    rng: random.Random, n: int, depth: int = 6, name: str = ""
) -> SequencingGraph:
    """Multi-target bit-stream dilution ladders with exactly *n* modules.

    Target concentrations are Farey fractions ``k / 2**depth`` (k odd,
    drawn without replacement). Each target is an independent bit-stream
    chain: starting from pure buffer, consume ``k``'s bits LSB first; a
    rung is one 1:1 dilute of the running droplet with fresh sample
    (bit 1) or buffer (bit 0), halving the distance to the target each
    time. Of a rung's two unit products one continues the ladder and
    the other is waste, sent straight to an output port — standard
    sample-preparation practice, and essential at scale: retaining the
    second droplet (e.g. for prefix sharing between targets) piles up
    tens of long-lived parked droplets that wall off routing corridors.
    Every completed target ends in a store (the retained aliquot);
    leftover budget pads as extra aliquot holds.
    """
    _check_n(n)
    if not 2 <= depth <= 10:
        raise ValueError(f"depth must lie in [2, 10], got {depth}")
    depth = min(depth, max(2, n - 1))
    b = _Builder(name or f"gen-dilution-ladder-{n}")
    odd_ks = list(range(1, 2**depth, 2))
    while b.modules + depth + 1 <= n and odd_ks:
        k = odd_ks.pop(rng.randrange(len(odd_ks)))
        bits = tuple((k >> i) & 1 for i in range(depth))  # LSB first
        droplet = b.dispense("buffer")
        conc = 0.0
        for i in range(depth):
            conc = (conc + bits[i]) / 2.0
            reagent = b.dispense("sample" if bits[i] else "buffer")
            droplet = b.dilute(
                droplet,
                reagent,
                label=f"rung {i + 1} toward {k}/{2**depth}",
                ratio=conc,
            )
            b.output(droplet, label="waste split")
        b.store(droplet, label=f"aliquot {k}/{2**depth}")
    # Independent chains land on a multiple of depth + 1; pad the rest
    # with extra holds chained after (rotating) stored aliquots.
    leaves = [op.id for op in b.g if op.type is OperationType.STORE]
    i = 0
    while b.modules < n:
        leaves[i % len(leaves)] = b.store(leaves[i % len(leaves)], "extended hold")
        i += 1
    loose = sorted(b.g.sinks())
    return b.finish([s for s in loose if b.g.operation(s).type is not OperationType.OUTPUT])


# -- multiplexed detection panels --------------------------------------------


def build_panel_assay(
    rng: random.Random, n: int, reagents: int = 4, name: str = ""
) -> SequencingGraph:
    """An S x R multiplexed detection panel with exactly *n* modules.

    Each (sample, reagent) pair is an independent
    dispense + dispense -> mix -> detect -> output chain (2 modules);
    an odd module budget adds one store between a pair's mix and
    detect. ``reagents`` fixes the panel width R; samples extend to
    cover ``n // 2`` pairs.
    """
    _check_n(n)
    if reagents < 1:
        raise ValueError(f"reagents must be >= 1, got {reagents}")
    pairs = n // 2
    b = _Builder(name or f"gen-panel-{n}")
    reagents = min(reagents, pairs)
    with_store = rng.randrange(pairs) if n % 2 else None
    for p in range(pairs):
        s, r = p // reagents + 1, p % reagents + 1
        d = b.mix(
            b.dispense(f"sample {s}"),
            b.dispense(f"reagent {r}"),
            _mixer(rng),
            label=f"mix s{s} with r{r}",
        )
        if p == with_store:
            d = b.store(d, label=f"hold s{s}r{r}")
        d = b.detect(d, label=f"read s{s}r{r}")
        b.output(d, label=f"waste s{s}r{r}")
    return b.finish([])


# -- composition -------------------------------------------------------------


def merge_graphs(name: str, graphs: list[SequencingGraph]) -> SequencingGraph:
    """Union independent graphs into one, prefixing ids ``g<i>.``."""
    merged = SequencingGraph(name=name)
    for i, g in enumerate(graphs):
        prefix = f"g{i + 1}."
        for op in g.operations():
            merged.add_operation(
                Operation(
                    prefix + op.id,
                    op.type,
                    label=op.label,
                    hardware=op.hardware,
                    duration_s=op.duration_s,
                    params=dict(op.params),
                )
            )
        for u, v in g.edges():
            merged.add_dependency(prefix + u, prefix + v)
    merged.validate()
    return merged


def build_mixed_assay(rng: random.Random, n: int, name: str = "") -> SequencingGraph:
    """A composition drawing 2-4 sub-assays from the other families.

    The module budget splits randomly (each chunk >= MIN_MODULES)
    across randomly chosen families; sub-graphs merge as independent
    components — the multi-protocol regime one chip serves in
    production.
    """
    _check_n(n)
    parts = max(1, min(rng.randint(2, 4), n // MIN_MODULES))
    # Equal-ish integer split of the budget, then randomly shift slack
    # forward — sums stay exactly n, every share stays >= MIN_MODULES.
    shares = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    for i in range(parts - 1):
        give = rng.randint(0, shares[i] - MIN_MODULES)
        shares[i] -= give
        shares[i + 1] += give
    families = [
        build_mix_tree_assay,
        build_diamond_assay,
        build_dilution_ladder_assay,
        build_panel_assay,
    ]
    graphs = [
        rng.choice(families)(rng, share) for share in shares
    ]
    return merge_graphs(name or f"gen-mixed-{n}", graphs)


# -- spec strings ------------------------------------------------------------


#: family name -> (builder, {param: (type, default)}). ``n`` is always
#: required; ``seed`` is handled by the spec layer itself.
GENERATOR_FAMILIES: dict[str, tuple[Callable, dict[str, tuple[type, object]]]] = {
    "mix-tree": (build_mix_tree_assay, {"store_pct": (int, 15)}),
    "diamond": (build_diamond_assay, {"max_arm": (int, 4)}),
    "dilution-ladder": (build_dilution_ladder_assay, {"depth": (int, 6)}),
    "panel": (build_panel_assay, {"reagents": (int, 4)}),
    "mixed": (build_mixed_assay, {}),
}

#: Spec-string prefix marking a generated (vs bundled) assay.
SPEC_PREFIX = "gen:"


@dataclass(frozen=True)
class GeneratorSpec:
    """A parsed, validated ``gen:<family>:k=v:...`` generator spec.

    ``canonical()`` renders the normal form — family first, then
    parameters sorted by key — which is the graph's name, the catalog
    registration key, and the campaign record's ``spec`` field.
    """

    family: str
    n: int
    seed: int = 0
    extra: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in GENERATOR_FAMILIES:
            raise ValueError(
                f"unknown generator family {self.family!r}; "
                f"choose from {sorted(GENERATOR_FAMILIES)}"
            )
        _check_n(self.n)
        allowed = GENERATOR_FAMILIES[self.family][1]
        for key, _ in self.extra:
            if key not in allowed:
                raise ValueError(
                    f"unknown parameter {key!r} for generator family "
                    f"{self.family!r}; allowed: {['n', 'seed', *sorted(allowed)]}"
                )

    @classmethod
    def parse(cls, spec: str) -> GeneratorSpec:
        """Parse ``gen:family:k=v:...``; raises ``ValueError`` on malformed
        or unknown fields (the CLI maps that to a usage error)."""
        if not spec.startswith(SPEC_PREFIX):
            raise ValueError(f"generator spec must start with {SPEC_PREFIX!r}: {spec!r}")
        parts = spec[len(SPEC_PREFIX):].split(":")
        family, raw = parts[0], parts[1:]
        params: dict[str, int] = {}
        for item in raw:
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ValueError(
                    f"malformed generator parameter {item!r} in {spec!r} "
                    "(expected key=value)"
                )
            if key in params:
                raise ValueError(f"duplicate generator parameter {key!r} in {spec!r}")
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"generator parameter {key!r} must be an integer, "
                    f"got {value!r} in {spec!r}"
                ) from None
        if "n" not in params:
            raise ValueError(f"generator spec {spec!r} is missing the required n=")
        return cls.from_params(family, params)

    @classmethod
    def from_params(cls, family: str, params: Mapping[str, int]) -> GeneratorSpec:
        """Build a spec from a parameter mapping (the config-file path)."""
        params = dict(params)
        if "n" not in params:
            raise ValueError(
                f"generator family {family!r} needs the required parameter n"
            )
        n = params.pop("n")
        seed = params.pop("seed", 0)
        for key, value in params.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"generator parameter {key!r} must be an integer, got {value!r}"
                )
        return cls(
            family=family, n=n, seed=seed, extra=tuple(sorted(params.items()))
        )

    def canonical(self) -> str:
        """The normal-form spec string (sorted parameter order)."""
        params = dict(self.extra)
        params["n"] = self.n
        params["seed"] = self.seed
        body = ":".join(f"{k}={params[k]}" for k in sorted(params))
        return f"{SPEC_PREFIX}{self.family}:{body}"

    def build(self) -> SequencingGraph:
        """Generate the graph this spec names (deterministic in *seed*)."""
        builder, _ = GENERATOR_FAMILIES[self.family]
        rng = random.Random(self.seed)
        kwargs = dict(self.extra)
        return builder(rng, self.n, name=self.canonical(), **kwargs)


def generate(spec: str | GeneratorSpec) -> SequencingGraph:
    """Generate the assay a spec string (or parsed spec) names."""
    if isinstance(spec, str):
        spec = GeneratorSpec.parse(spec)
    return spec.build()


def is_generator_spec(name: str) -> bool:
    """True when *name* addresses a generated (not bundled) assay."""
    return name.startswith(SPEC_PREFIX)
