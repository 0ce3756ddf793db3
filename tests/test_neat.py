from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chartevo import cppn, neat
from chartevo.cppn import (
    HIDDEN_ACTIVATION_NAMES,
    ConnectionGene,
    CppnGenome,
    NodeGene,
    WEIGHT_LIMIT,
    adjacency,
    minimal_genome,
    to_text,
    would_create_cycle,
)
from chartevo.evaluator import EvalConfig
from chartevo.neat import (
    Evolution,
    EvolutionConfig,
    InnovationRegistry,
    Species,
    adjust_threshold,
    compatibility,
    crossover,
    decayed_rate,
    decayed_rates,
    evolution_from_state,
    evolution_state,
    mutate,
    reproduce,
    speciate,
)
from chartevo.search import (
    GenerationRecord,
    SearchOptions,
    SearchRun,
    load_checkpoint,
    save_checkpoint,
)
from chartevo.types import ConfigError
from test_cppn import scalar_minimal_genome

PAIRS = [(src, dst) for src in range(7) for dst in (7, 8, 9)]


def genome_from_pairs(n_pairs, weight=0.5, weights=None):
    nodes = [NodeGene(i, "input", "linear") for i in range(7)]
    nodes += [NodeGene(i, "output", "linear") for i in (7, 8, 9)]
    conns = []
    for i in range(n_pairs):
        src, dst = PAIRS[i]
        w = weights[i] if weights else weight
        conns.append(ConnectionGene(i, src, dst, w, True))
    return CppnGenome(tuple(nodes), tuple(conns))


def quiet_config(**kw):
    defaults = dict(population_size=10, generations=1)
    defaults.update(kw)
    return EvolutionConfig(**defaults)


class TestCompatibility:
    def test_identical_genomes_zero(self):
        a = genome_from_pairs(10)
        assert compatibility(a, a) == 0.0

    def test_two_excess_genes(self):
        # larger genome has 10 genes, two beyond the other's last marker
        a = genome_from_pairs(10)
        b = genome_from_pairs(8)
        assert compatibility(a, b, 1.0, 1.0, 0.4) == pytest.approx(2 / 10)
        assert compatibility(b, a, 1.0, 1.0, 0.4) == pytest.approx(2 / 10)

    def test_mean_weight_difference(self):
        a = genome_from_pairs(2, weights=[1.0, 1.0])
        b = genome_from_pairs(2, weights=[0.5, 2.5])
        # matching diffs 0.5 and 1.5, mean 1.0, scaled by c3
        assert compatibility(a, b, 1.0, 1.0, 0.4) == pytest.approx(0.4)

    def test_disjoint_counted(self):
        full = genome_from_pairs(6)
        gapped = CppnGenome(full.nodes, tuple(
            [c for c in full.connections if c.innovation not in (2, 3)]
            + [ConnectionGene(6, *PAIRS[6], 0.5, True)]
        ))
        # innovations 2 and 3 are disjoint from one side, 6 is excess
        d = compatibility(full, gapped, 1.0, 0.0, 0.0)
        assert d == pytest.approx(1 / 6)  # excess only
        d = compatibility(full, gapped, 0.0, 1.0, 0.0)
        assert d == pytest.approx(2 / 6)  # disjoint only

    def test_empty_vs_empty(self):
        a = genome_from_pairs(0)
        assert compatibility(a, a) == 0.0


class TestThresholdAndDecay:
    def test_growth_per_generation(self):
        cfg = quiet_config()
        assert adjust_threshold(3.0, 1, cfg) == pytest.approx(3.003, rel=1e-12)

    def test_overspeciation_bump(self):
        cfg = quiet_config(max_species=100)
        assert adjust_threshold(3.0, 101, cfg) == pytest.approx(3.0 * 1.001 * 1.1, rel=1e-12)
        assert adjust_threshold(3.0, 100, cfg) == pytest.approx(3.003, rel=1e-12)

    def test_sequential_matches_closed_form(self):
        cfg = quiet_config()
        t = 3.0
        for _ in range(200):
            t = adjust_threshold(t, 1, cfg)
        assert t == pytest.approx(3.0 * 1.001**200, rel=1e-12)

    def test_decayed_rate_closed_form_is_exact(self):
        for g in (0, 1, 7, 100, 199):
            assert decayed_rate(0.8, 0.999, g) == 0.8 * 0.999**g
        rates = decayed_rates(quiet_config(), 100)
        assert rates["weight_mutation_rate"] == 0.8 * 0.999**100
        assert rates["add_connection_rate"] == 0.05 * 0.999**100
        assert rates["add_node_rate"] == 0.03 * 0.999**100

    def test_decay_hand_value(self):
        assert decayed_rate(1.0, 0.999, 100) == pytest.approx(0.9047921471137089, rel=1e-12)


class TestInnovationRegistry:
    def test_same_pair_same_number(self):
        reg = InnovationRegistry.primed()
        a = reg.connection_innovation(0, 10)
        b = reg.connection_innovation(0, 10)
        assert a == b == 21

    def test_distinct_pairs_distinct_numbers(self):
        reg = InnovationRegistry.primed()
        assert reg.connection_innovation(0, 10) != reg.connection_innovation(1, 10)

    def test_split_reused_across_genomes(self):
        reg = InnovationRegistry.primed()
        first = reg.split_link(0, 0, 7, {0, 7})
        second = reg.split_link(0, 0, 7, {0, 7})
        assert first == second

    def test_split_sibling_when_node_present(self):
        reg = InnovationRegistry.primed()
        node_id, _, _ = reg.split_link(0, 0, 7, {0, 7})
        sibling = reg.split_link(0, 0, 7, {0, 7, node_id})
        assert sibling[0] != node_id

    def test_state_round_trip(self):
        reg = InnovationRegistry.primed()
        reg.split_link(0, 0, 7, {0, 7})
        reg.connection_innovation(3, 10)
        again = InnovationRegistry.from_state(reg.state())
        assert again.state() == reg.state()
        assert again.connection_innovation(3, 10) == reg.connection_innovation(3, 10)


class TestMutate:
    def test_zero_rates_identity(self):
        cfg = quiet_config(weight_mutation_rate=0.0, add_connection_rate=0.0, add_node_rate=0.0)
        g = minimal_genome(np.random.default_rng(0))
        assert mutate(g, cfg, 0, InnovationRegistry.primed(), np.random.default_rng(1)) is g

    def test_add_node_splits_connection(self):
        cfg = quiet_config(weight_mutation_rate=0.0, add_connection_rate=0.0, add_node_rate=1.0)
        g = minimal_genome(np.random.default_rng(2))
        reg = InnovationRegistry.primed()
        child = mutate(g, cfg, 0, reg, np.random.default_rng(3))
        assert len(child.nodes) == len(g.nodes) + 1
        new_node = child.nodes[-1]
        assert new_node.role == "hidden"
        incoming = [c for c in child.connections if c.dst == new_node.id]
        outgoing = [c for c in child.connections if c.src == new_node.id]
        assert len(incoming) == 1 and len(outgoing) == 1
        assert incoming[0].weight == 1.0
        split = next(c for c in child.connections
                     if c.src == incoming[0].src and c.dst == outgoing[0].dst)
        assert not split.enabled
        assert outgoing[0].weight == split.weight

    def test_add_connection_uses_registry(self):
        cfg = quiet_config(weight_mutation_rate=0.0, add_connection_rate=1.0, add_node_rate=1.0)
        reg = InnovationRegistry.primed()
        rng = np.random.default_rng(4)
        g = minimal_genome(rng)
        for _ in range(6):
            g = mutate(g, cfg, 0, reg, rng)
        # every pair in the genome must carry the registry's number for it
        for c in g.connections:
            assert reg.connection_innovation(c.src, c.dst) == c.innovation

    def test_weight_mutation_statistics(self):
        cfg = quiet_config(weight_mutation_rate=0.5, weight_replace_fraction=0.0,
                           add_connection_rate=0.0, add_node_rate=0.0)
        rng = np.random.default_rng(5)
        g = minimal_genome(np.random.default_rng(6))
        changed = 0
        trials = 200
        for _ in range(trials):
            child = mutate(g, cfg, 0, InnovationRegistry.primed(), rng)
            changed += sum(
                1 for a, b in zip(g.connections, child.connections) if a.weight != b.weight
            )
        total = trials * len(g.connections)
        rate = changed / total
        sigma = math.sqrt(0.5 * 0.5 / total)
        assert abs(rate - 0.5) < 3 * sigma

    def test_weights_stay_clamped(self):
        cfg = quiet_config(weight_mutation_rate=1.0, weight_replace_fraction=0.0)
        rng = np.random.default_rng(7)
        reg = InnovationRegistry.primed()
        g = minimal_genome(rng)
        for _ in range(200):
            g = mutate(g, cfg, 0, reg, rng)
        assert all(abs(c.weight) <= 3.0 for c in g.connections)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_structure_stays_valid_under_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        cfg = quiet_config(weight_mutation_rate=0.9, add_connection_rate=0.5, add_node_rate=0.5)
        reg = InnovationRegistry.primed()
        g = minimal_genome(rng)
        for gen in range(12):
            g = mutate(g, cfg, gen, reg, rng)  # structural mutants are re-validated
        order = g.structure.order
        assert len(order) == len(g.nodes)

    def test_same_innovation_for_parallel_structures(self):
        cfg = quiet_config(weight_mutation_rate=0.0, add_connection_rate=0.0, add_node_rate=1.0)
        reg = InnovationRegistry.primed()
        seeds = [np.random.default_rng(s) for s in (10, 11)]
        children = []
        for rng in seeds:
            g = minimal_genome(np.random.default_rng(9))
            # force both rngs to split the same first connection
            child = mutate(CppnGenome(g.nodes, g.connections[:1]), cfg, 0, reg, rng)
            children.append(child)
        new_a = [c for c in children[0].connections if c.innovation >= 21]
        new_b = [c for c in children[1].connections if c.innovation >= 21]
        assert {c.innovation for c in new_a} == {c.innovation for c in new_b}


class TestOffspringStructure:
    """Weight-only mutants and crossover children reuse their parent's
    nodes and cached order; they must equal a fully checked construction."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_children_equal_checked_construction(self, seed):
        rng = np.random.default_rng(seed)
        cfg = quiet_config(weight_mutation_rate=0.9, add_connection_rate=0.5, add_node_rate=0.5)
        reg = InnovationRegistry.primed()
        pool = [minimal_genome(rng) for _ in range(4)]
        for gen in range(10):
            children = []
            for _ in range(6):
                a, b = (pool[int(i)] for i in rng.choice(len(pool), 2, replace=False))
                child = crossover(a, b, float(rng.random()), float(rng.random()), rng)
                children += [child, mutate(child, cfg, gen, reg, rng)]
            for child in children:
                checked = CppnGenome(child.nodes, child.connections)
                assert child == checked
                assert child.structure.order == checked.structure.order
            pool = children

    def test_weight_only_mutant_keeps_parent_nodes(self):
        cfg = quiet_config(weight_mutation_rate=1.0, add_connection_rate=0.0, add_node_rate=0.0)
        g = minimal_genome(np.random.default_rng(4))
        child = mutate(g, cfg, 0, InnovationRegistry.primed(), np.random.default_rng(5))
        assert child != g
        assert child.nodes is g.nodes
        assert child.structure.order is g.structure.order


class TestSharedStructure:
    """Variation builds no per-gene objects: a genome is a shared structure
    plus a weight tuple, and offspring share their parent's structure
    unless a link, a node or an enable flag changes."""

    def test_advance_builds_no_genes_and_sorts_only_new_structures(self, monkeypatch):
        cfg = quiet_config(population_size=200, generations=6, rng_seed=31,
                           add_connection_rate=0.3, add_node_rate=0.1)
        evo = Evolution.start(cfg)
        genes, sorts, calls = [], [], []
        real_sort = cppn._topological_order
        real_mutate, real_crossover = neat.mutate, neat.crossover

        def recorded(kind, operator):
            def wrapper(*args):
                before = len(sorts)
                child = operator(*args)
                calls.append((kind, args[:2], child, len(sorts) - before))
                return child
            return wrapper

        # a row's own __init__ is object's, a no-op; every call of the class, as
        # ``genome.connections`` makes, is recorded here
        monkeypatch.setattr(ConnectionGene, "__init__", lambda self, *args: genes.append(args))
        monkeypatch.setattr(cppn, "_topological_order", lambda *args: sorts.append(args) or real_sort(*args))
        monkeypatch.setattr(neat, "mutate", recorded("mutate", real_mutate))
        monkeypatch.setattr(neat, "crossover", recorded("crossover", real_crossover))
        for _ in range(cfg.generations - 1):
            evo.advance([float(sum(g.weights)) for g in evo.population])
        assert genes == []
        seen = {"weight-only": 0, "structural": 0, "crossover": 0, "new flags": 0}
        for kind, (first, second), child, child_sorts in calls:
            if kind == "crossover":
                assert child_sorts == 0
                seen["crossover"] += 1
                if all(child.structure is not p.structure for p in (first, second)):
                    # only an enable flag changed
                    assert any(child.structure.innovations == p.structure.innovations
                               and child.structure.nodes == p.structure.nodes for p in (first, second))
                    seen["new flags"] += 1
            elif child is not first and child.structure.innovations == first.structure.innovations:
                assert child_sorts == 0
                assert child.structure is first.structure
                outputs = cppn.OUTPUT_IDS
                assert child.structure.program(outputs) is first.structure.program(outputs)
                seen["weight-only"] += 1
            elif child is not first:
                assert child.structure.innovations != first.structure.innovations
                seen["structural"] += 1
        assert min(seen.values()) > 0, seen
        # only structural offspring may sort, and not all of them need to
        assert 0 < len(sorts) <= seen["structural"]


class TestCrossover:
    def test_identical_parents(self):
        g = minimal_genome(np.random.default_rng(1))
        child = crossover(g, g, 1.0, 1.0, np.random.default_rng(2))
        assert child == g

    def test_fitter_structure_wins(self):
        rng = np.random.default_rng(3)
        a = minimal_genome(rng)
        b = CppnGenome(a.nodes, a.connections[:19])
        child = crossover(a, b, 2.0, 1.0, np.random.default_rng(4))
        assert {c.innovation for c in child.connections} == {c.innovation for c in a.connections}
        child = crossover(a, b, 1.0, 2.0, np.random.default_rng(5))
        assert {c.innovation for c in child.connections} == {c.innovation for c in b.connections}

    def test_matching_weights_from_either_parent(self):
        a = genome_from_pairs(5, weight=1.0)
        b = genome_from_pairs(5, weight=-1.0)
        child = crossover(a, b, 1.0, 0.5, np.random.default_rng(6))
        assert all(c.weight in (1.0, -1.0) for c in child.connections)
        weights = {c.weight for c in child.connections}
        assert len(weights) == 2  # with 5 genes both sources almost surely appear

    def test_disabled_in_either_parent_rule(self):
        a = genome_from_pairs(1)
        disabled = CppnGenome(a.nodes, (ConnectionGene(0, PAIRS[0][0], PAIRS[0][1], 0.5, False),))
        rng = np.random.default_rng(7)
        enabled_count = 0
        trials = 800
        for _ in range(trials):
            child = crossover(a, disabled, 1.0, 1.0, rng)
            enabled_count += child.connections[0].enabled
        rate = enabled_count / trials
        sigma = math.sqrt(0.25 * 0.75 / trials)
        assert abs(rate - 0.25) < 3 * sigma

    def test_equal_fitness_genes_from_union(self):
        rng = np.random.default_rng(8)
        a = minimal_genome(rng)
        b = minimal_genome(rng)
        child = crossover(a, b, 1.0, 1.0, np.random.default_rng(9))
        union = {c.innovation for c in a.connections} | {c.innovation for c in b.connections}
        assert {c.innovation for c in child.connections} <= union


def scalar_mutate(genome, config, generation, registry, rng):
    """``mutate`` with one scalar Generator call per draw: the oracle for its draw stream."""
    rates = decayed_rates(config, generation)
    changed = structural = False
    conns = list(genome.connections)
    for i, c in enumerate(conns):
        if rng.random() < rates["weight_mutation_rate"]:
            if rng.random() < config.weight_replace_fraction:
                weight = float(rng.uniform(-1.0, 1.0))
            else:
                weight = min(WEIGHT_LIMIT, max(-WEIGHT_LIMIT, c.weight + float(
                    rng.uniform(-config.perturb_half_range, config.perturb_half_range))))
            conns[i] = ConnectionGene(c.innovation, c.src, c.dst, weight, c.enabled)
            changed = True
    nodes = list(genome.nodes)
    if rng.random() < rates["add_connection_rate"]:
        present = {(c.src, c.dst) for c in conns}
        sources = sorted(n.id for n in nodes if n.role != "output")
        targets = sorted(n.id for n in nodes if n.role != "input")
        outgoing = adjacency(genome)
        candidates = [
            (src, dst)
            for src in sources
            for dst in targets
            if (src, dst) not in present and not would_create_cycle(outgoing, src, dst)
        ]
        if candidates:
            src, dst = candidates[int(rng.integers(len(candidates)))]
            innovation = registry.connection_innovation(src, dst)
            conns.append(ConnectionGene(innovation, src, dst, float(rng.uniform(-1.0, 1.0)), True))
            changed = structural = True
    if rng.random() < rates["add_node_rate"]:
        enabled = [i for i, c in enumerate(conns) if c.enabled]
        if enabled:
            pick = enabled[int(rng.integers(len(enabled)))]
            old = conns[pick]
            node_id, in_innov, out_innov = registry.split_link(old.innovation, old.src, old.dst,
                                                               {n.id for n in nodes})
            activation = HIDDEN_ACTIVATION_NAMES[int(rng.integers(len(HIDDEN_ACTIVATION_NAMES)))]
            nodes.append(NodeGene(node_id, "hidden", activation))
            conns[pick] = ConnectionGene(old.innovation, old.src, old.dst, old.weight, False)
            conns.append(ConnectionGene(in_innov, old.src, node_id, 1.0, True))
            conns.append(ConnectionGene(out_innov, node_id, old.dst, old.weight, True))
            changed = structural = True
    if not changed:
        return genome
    return CppnGenome(tuple(nodes), tuple(conns))


def scalar_crossover(parent_a, parent_b, fitness_a, fitness_b, rng):
    """``crossover`` with one scalar ``random()`` per draw: the oracle for its draw stream."""
    if fitness_a > fitness_b:
        fitter, other = parent_a, parent_b
    elif fitness_b > fitness_a:
        fitter, other = parent_b, parent_a
    elif rng.random() < 0.5:
        fitter, other = parent_a, parent_b
    else:
        fitter, other = parent_b, parent_a
    other_genes = {c.innovation: c for c in other.connections}
    child_conns = []
    for gene in fitter.connections:
        partner = other_genes.get(gene.innovation)
        if partner is None:
            chosen = gene
            disabled_somewhere = not gene.enabled
        else:
            chosen = gene if rng.random() < 0.5 else partner
            disabled_somewhere = not (gene.enabled and partner.enabled)
        enabled = True if not disabled_somewhere else bool(rng.random() >= 0.75)
        child_conns.append(ConnectionGene(gene.innovation, gene.src, gene.dst, chosen.weight, enabled))
    return CppnGenome(fitter.nodes, tuple(child_conns))


def grown_genomes(count, seed, growth, disable_fraction, keep_fraction):
    """``count`` relatives of one minimal genome, each grown by ``growth`` oracle
    mutations (hidden nodes, extra links), then with genes disabled or dropped
    at random; all carry one registry's markers, which is returned too."""
    rng = np.random.default_rng(seed)
    registry = InnovationRegistry.primed()
    grow = quiet_config(weight_mutation_rate=1.0, weight_replace_fraction=0.5,
                        add_connection_rate=0.5, add_node_rate=0.5)
    ancestor = scalar_minimal_genome(rng)
    genomes = []
    for _ in range(count):
        g = ancestor
        for gen in range(growth):
            g = scalar_mutate(g, grow, gen, registry, rng)
        conns = tuple(ConnectionGene(c.innovation, c.src, c.dst, c.weight,
                                     c.enabled and rng.random() >= disable_fraction)
                      for c in g.connections if rng.random() < keep_fraction)
        genomes.append(CppnGenome(g.nodes, conns))
    return genomes, registry


genome_shapes = st.tuples(
    st.integers(0, 2**32 - 1),          # seed
    st.integers(0, 6),                  # oracle mutations grown
    st.sampled_from([0.0, 0.3, 1.0]),   # share of genes disabled
    st.sampled_from([1.0, 0.6, 0.0]),   # share of genes kept
)
# base rates of 0, 0.3 and 1; generation 40 decays them by 0.99**40
variation_configs = st.builds(
    quiet_config,
    weight_mutation_rate=st.sampled_from([0.0, 0.3, 1.0]),
    add_connection_rate=st.sampled_from([0.0, 0.3, 1.0]),
    add_node_rate=st.sampled_from([0.0, 0.3, 1.0]),
    weight_replace_fraction=st.sampled_from([0.0, 0.1, 1.0]),
    perturb_half_range=st.sampled_from([0.5, 2.5]),  # 2.5 often clamps at the weight limit
    decay_factor=st.just(0.99),
)


class TestExactDrawStream:
    """Block draws must reproduce the scalar calls bit for bit: the same
    genome text and the same generator state after every call."""

    @given(genome_shapes, variation_configs, st.sampled_from([0, 40]), st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    def test_mutate_equals_scalar_oracle(self, shape, cfg, generation, seed):
        (genome,), registry = grown_genomes(1, *shape)
        registry_state = registry.state()
        reg, oracle_reg = (InnovationRegistry.from_state(registry_state) for _ in range(2))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            child = mutate(genome, cfg, generation, reg, rng)
            expected = scalar_mutate(genome, cfg, generation, oracle_reg, oracle_rng)
            assert to_text(child) == to_text(expected)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert reg.state() == oracle_reg.state()
            genome = child

    @given(genome_shapes, st.sampled_from([(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    def test_crossover_equals_scalar_oracle(self, shape, fitness, seed):
        (a, b), _ = grown_genomes(2, *shape)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for first, second in ((a, b), (b, a), (a, a)):
            child = crossover(first, second, *fitness, rng)
            expected = scalar_crossover(first, second, *fitness, oracle_rng)
            assert to_text(child) == to_text(expected)
            assert child == expected
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    # with rare weight events a block one draw too long is not absorbed by later draws
    @pytest.mark.parametrize("seed, weight_rate", [(3, 0.8), (17, 0.1), (2024, 0.0)])
    def test_evolution_equals_oracle_driven_run(self, seed, weight_rate, monkeypatch):
        cfg = quiet_config(population_size=40, generations=8, rng_seed=seed, decay_factor=0.95,
                           weight_mutation_rate=weight_rate, add_connection_rate=0.4,
                           add_node_rate=0.2, weight_replace_fraction=0.3)

        def run():
            evo = Evolution.start(cfg)
            states = [json.dumps(evolution_state(evo))]
            for _ in range(cfg.generations):
                # whole-number fitness: ties inside species and between parents
                evo.advance([float(round(sum(c.weight for c in g.connections if c.enabled)))
                             for g in evo.population])
                states.append(json.dumps(evolution_state(evo)))
            return states

        fast = run()
        with monkeypatch.context() as m:
            m.setattr(neat, "mutate", scalar_mutate)
            m.setattr(neat, "crossover", scalar_crossover)
            m.setattr(neat, "minimal_genome", scalar_minimal_genome)
            oracle = run()
        assert fast == oracle


class TestSpeciate:
    def _population(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return [minimal_genome(rng) for _ in range(n)]

    def test_huge_threshold_single_species(self):
        pop = self._population(12)
        species, next_id = speciate(pop, [], 1e9, quiet_config(), np.random.default_rng(0), 0)
        assert len(species) == 1
        assert sorted(species[0].members) == list(range(12))
        assert next_id == 1

    def test_zero_threshold_one_species_each(self):
        pop = self._population(9)
        species, next_id = speciate(pop, [], 0.0, quiet_config(), np.random.default_rng(0), 0)
        assert len(species) == 9
        assert next_id == 9

    def test_matches_greedy_oracle(self):
        pop = self._population(30, seed=3)
        cfg = quiet_config()
        threshold = 1.2
        species, _ = speciate(pop, [], threshold, cfg, np.random.default_rng(1), 0)
        # independent greedy assignment in the same scan order
        reps: list[tuple[int, CppnGenome]] = []
        assignment: dict[int, list[int]] = {}
        for idx, genome in enumerate(pop):
            for sid, rep in reps:
                if compatibility(genome, rep) < threshold:
                    assignment[sid].append(idx)
                    break
            else:
                sid = len(reps)
                reps.append((sid, genome))
                assignment[sid] = [idx]
        assert [sp.members for sp in species] == [assignment[sid] for sid, _ in reps]

    def test_representatives_resampled_from_members(self):
        pop = self._population(20, seed=4)
        species, _ = speciate(pop, [], 1e9, quiet_config(), np.random.default_rng(2), 0)
        assert any(species[0].representative is pop[i] for i in species[0].members)

    def test_carried_species_keep_identity(self):
        pop = self._population(10, seed=5)
        cfg = quiet_config()
        rng = np.random.default_rng(3)
        first, next_id = speciate(pop, [], 1e9, cfg, rng, 0)
        first[0].best_fitness = 0.7
        first[0].stagnation = 4
        second, _ = speciate(pop, first, 1e9, cfg, rng, next_id)
        assert second[0].species_id == first[0].species_id
        assert second[0].best_fitness == 0.7
        assert second[0].stagnation == 4


class TestReproduce:
    def _setup(self, n=10, seed=0, threshold=1e9):
        rng = np.random.default_rng(seed)
        pop = [minimal_genome(rng) for _ in range(n)]
        cfg = quiet_config(population_size=n)
        species, _ = speciate(pop, [], threshold, cfg, rng, 0)
        return pop, cfg, species, rng

    def test_population_size_preserved(self):
        pop, cfg, species, rng = self._setup(12, seed=1)
        cfg = quiet_config(population_size=12)
        fits = list(np.random.default_rng(2).uniform(-1, 1, 12))
        new_pop, _ = reproduce(pop, fits, species, cfg, 0, InnovationRegistry.primed(), rng)
        assert len(new_pop) == 12

    def test_elite_preserved_unchanged(self):
        pop, cfg, species, rng = self._setup(10, seed=3)
        fits = [float(i) for i in range(10)]
        new_pop, _ = reproduce(pop, fits, species, cfg, 0, InnovationRegistry.primed(), rng)
        assert any(g is pop[9] for g in new_pop)

    def test_champion_survives_even_in_tiny_species(self):
        # threshold zero puts every genome in its own species of one, so
        # no species reaches the elitism size floor
        pop, cfg, species, rng = self._setup(6, seed=4, threshold=0.0)
        cfg = quiet_config(population_size=6)
        fits = [0.1, 0.9, 0.2, 0.3, 0.0, 0.4]
        new_pop, _ = reproduce(pop, fits, species, cfg, 0, InnovationRegistry.primed(), rng)
        assert any(g is pop[1] for g in new_pop)

    def test_offspring_quota_proportional(self):
        rng = np.random.default_rng(5)
        pop = [minimal_genome(rng) for _ in range(4)]
        species = [
            Species(0, pop[0], members=[0, 1]),
            Species(1, pop[2], members=[2, 3]),
        ]
        cfg = quiet_config(
            population_size=9, elitism=0, crossover_rate=0.0,
            weight_mutation_rate=0.0, add_connection_rate=0.0, add_node_rate=0.0,
        )
        fits = [0.4, 0.4, 0.2, 0.2]
        new_pop, _ = reproduce(pop, fits, species, cfg, 0, InnovationRegistry.primed(), rng)
        assert len(new_pop) == 9
        # with cloning-only reproduction every child is one of the parents,
        # so shared-fitness weights 0.4 vs 0.2 are visible as a 6:3 split
        from_a = sum(1 for g in new_pop if g in (pop[0], pop[1]))
        from_b = sum(1 for g in new_pop if g in (pop[2], pop[3]))
        assert (from_a, from_b) == (6, 3)

    def test_negative_fitness_shift(self):
        pop, cfg, species, rng = self._setup(8, seed=6)
        fits = [-0.5, -0.1, -0.9, -0.2, -0.4, -0.3, -0.8, -0.6]
        new_pop, _ = reproduce(pop, fits, species, cfg, 0, InnovationRegistry.primed(), rng)
        assert len(new_pop) == 8

    def test_stagnant_species_removed(self):
        rng = np.random.default_rng(7)
        pop = [minimal_genome(rng) for _ in range(6)]
        stale = Species(0, pop[0], members=[0, 1, 2], best_fitness=5.0, stagnation=20)
        fresh = Species(1, pop[3], members=[3, 4, 5], best_fitness=0.0, stagnation=0)
        cfg = quiet_config(population_size=6, stagnation_limit=15)
        fits = [0.5, 0.4, 0.3, 1.0, 0.2, 0.1]
        species = [stale, fresh]
        _, events = reproduce(pop, fits, species, cfg, 0, InnovationRegistry.primed(), rng)
        assert any("removed" in e for e in events)
        assert [sp.species_id for sp in species] == [1]

    def test_champion_species_never_removed(self):
        rng = np.random.default_rng(8)
        pop = [minimal_genome(rng) for _ in range(4)]
        stale = Species(0, pop[0], members=[0, 1], best_fitness=5.0, stagnation=20)
        other = Species(1, pop[2], members=[2, 3], best_fitness=0.1, stagnation=0)
        cfg = quiet_config(population_size=4, stagnation_limit=15)
        fits = [2.0, 0.1, 0.5, 0.4]  # champion sits in the stagnant species
        species = [stale, other]
        _, events = reproduce(pop, fits, species, cfg, 0, InnovationRegistry.primed(), rng)
        assert 0 in [sp.species_id for sp in species]

    def test_all_stagnant_restart_event(self):
        rng = np.random.default_rng(9)
        pop = [minimal_genome(rng) for _ in range(4)]
        species = [Species(0, pop[0], members=[0, 1, 2, 3], best_fitness=9.0, stagnation=30)]
        cfg = quiet_config(population_size=4, stagnation_limit=15)
        _, events = reproduce(pop, [0.1] * 4, species, cfg, 0, InnovationRegistry.primed(), rng)
        assert any("stagnant" in e for e in events)


class TestEvolutionLoop:
    @staticmethod
    def synthetic_fitness(genome):
        return float(sum(c.weight for c in genome.connections if c.enabled))

    def test_two_runs_identical(self):
        cfg = quiet_config(population_size=20, generations=8, rng_seed=11)
        runs = []
        for _ in range(2):
            evo = Evolution.start(cfg)
            trace = []
            for g in range(8):
                fits = [self.synthetic_fitness(x) for x in evo.population]
                evo.advance(fits, reproduce_population=g < 7)
                trace.append((tuple(evo.population), evo.threshold))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_best_fitness_monotonic_under_deterministic_eval(self):
        cfg = quiet_config(population_size=24, generations=10, rng_seed=12)
        evo = Evolution.start(cfg)
        best = -math.inf
        for g in range(10):
            fits = [self.synthetic_fitness(x) for x in evo.population]
            assert max(fits) >= best - 1e-12
            best = max(best, max(fits))
            evo.advance(fits)

    def test_generation_counter_and_stats(self):
        cfg = quiet_config(population_size=8, generations=3, rng_seed=13)
        evo = Evolution.start(cfg)
        stats = evo.advance([0.0] * 8)
        assert stats.generation == 0
        assert stats.species_count >= 1
        assert evo.generation == 1
        stats = evo.advance([0.0] * 8, reproduce_population=False)
        assert evo.generation == 1  # final evaluation does not step the counter

    def test_threshold_follows_growth(self):
        cfg = quiet_config(population_size=8, generations=5, rng_seed=14)
        evo = Evolution.start(cfg)
        for _ in range(5):
            evo.advance([0.0] * 8)
        assert evo.threshold == pytest.approx(3.0 * 1.001**5, rel=1e-12)

    def test_mismatched_fitness_length_rejected(self):
        evo = Evolution.start(quiet_config(population_size=8))
        with pytest.raises(ValueError):
            evo.advance([0.0] * 7)


def search_configs(cfg):
    return {"evolution": cfg, "eval": EvalConfig(), "search": SearchOptions()}


class TestCheckpoint:
    """The NEAT state round trip, alone and inside a search checkpoint file."""

    @staticmethod
    def save(path, evo, run=None):
        run = run or SearchRun("run", "template", k=5)
        save_checkpoint(path, evo, run, search_configs(evo.config), tensors={})

    @staticmethod
    def load(path, cfg):
        return load_checkpoint(path, search_configs(cfg), tensors={})

    def test_state_round_trip(self):
        cfg = quiet_config(population_size=10, generations=5, rng_seed=21)
        evo = Evolution.start(cfg)
        for g in range(3):
            fits = [TestEvolutionLoop.synthetic_fitness(x) for x in evo.population]
            evo.advance(fits)
        state = evolution_state(evo)
        again = evolution_from_state(state, cfg)
        assert evolution_state(again) == state

    def test_resume_equals_uninterrupted(self, tmp_path):
        cfg = quiet_config(population_size=14, generations=6, rng_seed=22)

        def run(evo, start, stop, total=6):
            for g in range(start, stop):
                fits = [TestEvolutionLoop.synthetic_fitness(x) for x in evo.population]
                evo.advance(fits, reproduce_population=g < total - 1)
            return evo

        straight = run(Evolution.start(cfg), 0, 6)
        half = run(Evolution.start(cfg), 0, 3)
        # generation 2 reproduced (it is not the final one), so the counter sits at 3
        path = tmp_path / "ckpt.json"
        self.save(path, half)
        resumed, history, champions = self.load(path, cfg)
        assert history == [] and champions == []
        resumed = run(resumed, resumed.generation, 6)
        assert resumed.population == straight.population
        assert resumed.threshold == straight.threshold
        assert resumed.rng.bit_generator.state == straight.rng.bit_generator.state

    def test_bad_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}\n')
        with pytest.raises(ConfigError, match="not a chartevo checkpoint"):
            self.load(path, quiet_config())

    def _saved(self, tmp_path):
        evo = Evolution.start(quiet_config(population_size=6, rng_seed=23))
        evo.advance([0.0] * 6)
        path = tmp_path / "ckpt.json"
        self.save(path, evo)
        return evo, path

    def test_genomes_stored_as_genome_text(self, tmp_path):
        evo, path = self._saved(tmp_path)
        state = json.loads(path.read_text())["evolution"]
        assert state["population"] == [to_text(g) for g in evo.population]
        assert [sp["representative"] for sp in state["species"]] == [
            to_text(sp.representative) for sp in evo.species
        ]

    def test_version_1_refused(self, tmp_path):
        _, path = self._saved(tmp_path)
        state = json.loads(path.read_text())
        for version in (1, 2):  # 2 stored no corpus digests
            state["version"] = version
            path.write_text(json.dumps(state) + "\n")
            with pytest.raises(ConfigError, match=f"version {version} is not supported"):
                self.load(path, quiet_config())

    @pytest.mark.parametrize("mangle", [
        lambda s: s["evolution"].pop("registry"),
        lambda s: s["evolution"].__setitem__("population", ["chartevo-cppn 1\nnode 0 input\n"]),
        lambda s: s["evolution"].__setitem__("species", [{"id": 0}]),
        lambda s: s["evolution"].__setitem__("threshold", "high"),
        lambda s: s["evolution"].__setitem__("rng_state", 5),
        lambda s: s.__setitem__("extra", []),
    ], ids=["no-registry", "bad-genome", "short-species", "bad-threshold", "bad-rng",
            "extra-list"])
    def test_malformed_content_is_config_error(self, tmp_path, mangle):
        _, path = self._saved(tmp_path)
        state = json.loads(path.read_text())
        mangle(state)
        path.write_text(json.dumps(state) + "\n")
        with pytest.raises(ConfigError, match="ckpt.json: malformed checkpoint"):
            self.load(path, quiet_config(population_size=6, rng_seed=23))

    def test_missing_final_newline_refused(self, tmp_path):
        _, path = self._saved(tmp_path)
        path.write_text(path.read_text().rstrip("\n"))
        with pytest.raises(ConfigError, match="final newline"):
            self.load(path, quiet_config())

    def test_failed_dump_leaves_no_checkpoint_and_no_temp_file(self, tmp_path):
        evo = Evolution.start(quiet_config(population_size=6, rng_seed=24))
        run = SearchRun("run", "template", k=5)
        run.history.append(GenerationRecord(0, 0.0, 0.0, 0, 1, 3.0, validation_fitness=object()))
        path = tmp_path / "ckpt.json"
        # json.dump writes the evolution state's chunks before it reaches the history
        with pytest.raises(TypeError):
            self.save(path, evo, run)
        assert list(tmp_path.iterdir()) == []


class TestConfigValidation:
    def test_population_floor(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(population_size=1)

    def test_rates_bounded(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(weight_mutation_rate=1.5)

    def test_decay_range(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(decay_factor=0.0)
