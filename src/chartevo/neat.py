"""Speciated evolution of CPPN genomes with historical innovation markers.

Each structural novelty (a new link, or a node spliced into a link) gets
an innovation number from a registry shared across the whole run, so the
same innovation arising independently in two genomes carries the same
marker.  Markers line genes up during crossover and drive the genome
compatibility distance used for speciation.  A genome (see
:mod:`chartevo.cppn`) is a shared structure plus a tuple of weights in
innovation order: markers align two genomes through their structures'
innovation-to-position maps, and offspring share their parent's
structure object unless a link, a node or an enable flag changes.

Per generation: evaluate, speciate against representatives drawn from
the previous generation, adjust the compatibility threshold, then
reproduce species-by-species with fitness sharing, elitism and
stagnation culling.  Mutation rates decay geometrically with the
generation index; the compatibility threshold grows geometrically, with
an extra bump whenever the species count overshoots its cap.
"""
from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cppn import (
    ConnectionGene,
    CppnGenome,
    FIRST_HIDDEN_ID,
    HIDDEN_ACTIVATION_NAMES,
    INPUT_IDS,
    NodeGene,
    N_INITIAL_CONNECTIONS,
    OUTPUT_IDS,
    WEIGHT_LIMIT,
    adjacency,
    from_text,
    minimal_genome,
    to_text,
    would_create_cycle,
)
from .types import ConfigError

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 1000
    generations: int = 200
    decay_factor: float = 0.999
    threshold_growth: float = 1.001
    overspeciation_factor: float = 1.1
    max_species: int = 100
    compatibility_threshold: float = 3.0
    excess_coefficient: float = 1.0
    disjoint_coefficient: float = 1.0
    weight_coefficient: float = 0.4
    weight_mutation_rate: float = 0.8
    weight_replace_fraction: float = 0.1
    perturb_half_range: float = 0.5
    add_connection_rate: float = 0.05
    add_node_rate: float = 0.03
    crossover_rate: float = 0.75
    elitism: int = 1
    elitism_min_size: int = 5
    survival_fraction: float = 0.2
    stagnation_limit: int = 15
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigError("population_size must be >= 2")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError("decay_factor must lie in (0, 1]")
        if self.threshold_growth < 1.0 or self.overspeciation_factor < 1.0:
            raise ConfigError("threshold factors must be >= 1")
        if self.max_species < 1:
            raise ConfigError("max_species must be >= 1")
        if self.compatibility_threshold < 0:
            raise ConfigError("compatibility_threshold must be >= 0")
        for name in ("weight_mutation_rate", "weight_replace_fraction", "add_connection_rate",
                     "add_node_rate", "crossover_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.survival_fraction <= 1.0:
            raise ConfigError("survival_fraction must lie in (0, 1]")
        if self.elitism < 0 or self.elitism_min_size < 1:
            raise ConfigError("elitism settings out of range")
        if self.stagnation_limit < 1:
            raise ConfigError("stagnation_limit must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")


def decayed_rate(base: float, decay: float, generation: int) -> float:
    """Mutation rate at a generation; closed form, no cumulative drift."""
    return base * decay**generation


def decayed_rates(config: EvolutionConfig, generation: int) -> dict[str, float]:
    return {
        "weight_mutation_rate": decayed_rate(config.weight_mutation_rate, config.decay_factor, generation),
        "add_connection_rate": decayed_rate(config.add_connection_rate, config.decay_factor, generation),
        "add_node_rate": decayed_rate(config.add_node_rate, config.decay_factor, generation),
    }


class InnovationRegistry:
    """Run-global allocator of innovation numbers and hidden-node ids.

    The same (src, dst) link always maps to the same innovation number,
    and splitting the same connection yields the same replacement node
    (unless the genome already owns it, in which case a sibling entry is
    allocated).  Numbers are never reused for different structures.
    """

    def __init__(self) -> None:
        self._pairs: dict[tuple[int, int], int] = {}
        self._splits: dict[int, list[tuple[int, int, int]]] = {}
        self.next_innovation = 0
        self.next_node_id = FIRST_HIDDEN_ID

    @classmethod
    def primed(cls) -> InnovationRegistry:
        """Registry pre-loaded with the canonical initial-genome links."""
        reg = cls()
        for src in INPUT_IDS:
            for dst in OUTPUT_IDS:
                reg.connection_innovation(src, dst)
        assert reg.next_innovation == N_INITIAL_CONNECTIONS
        return reg

    def connection_innovation(self, src: int, dst: int) -> int:
        key = (src, dst)
        if key not in self._pairs:
            self._pairs[key] = self.next_innovation
            self.next_innovation += 1
        return self._pairs[key]

    def split(self, conn: ConnectionGene, existing_node_ids) -> tuple[int, int, int]:
        """(node_id, incoming innovation, outgoing innovation) for splitting ``conn``."""
        return self.split_link(conn.innovation, conn.src, conn.dst, existing_node_ids)

    def split_link(self, innovation: int, src: int, dst: int, existing_node_ids) -> tuple[int, int, int]:
        """:meth:`split` for the link ``src -> dst`` numbered ``innovation``."""
        entries = self._splits.setdefault(innovation, [])
        for entry in entries:
            if entry[0] not in existing_node_ids:
                return entry
        node_id = self.next_node_id
        self.next_node_id += 1
        entry = (
            node_id,
            self.connection_innovation(src, node_id),
            self.connection_innovation(node_id, dst),
        )
        entries.append(entry)
        return entry

    def state(self) -> dict:
        return {
            "pairs": [[src, dst, innov] for (src, dst), innov in sorted(self._pairs.items())],
            "splits": {str(k): [list(e) for e in v] for k, v in sorted(self._splits.items())},
            "next_innovation": self.next_innovation,
            "next_node_id": self.next_node_id,
        }

    @classmethod
    def from_state(cls, state: dict) -> InnovationRegistry:
        reg = cls()
        reg._pairs = {(src, dst): innov for src, dst, innov in state["pairs"]}
        reg._splits = {int(k): [tuple(e) for e in v] for k, v in state["splits"].items()}
        reg.next_innovation = state["next_innovation"]
        reg.next_node_id = state["next_node_id"]
        return reg


@dataclass
class Species:
    """Mutable bookkeeping for one species across generations."""

    species_id: int
    representative: CppnGenome
    members: list[int] = field(default_factory=list)
    best_fitness: float = -math.inf
    stagnation: int = 0


def compatibility(a: CppnGenome, b: CppnGenome, c1: float = 1.0, c2: float = 1.0,
                  c3: float = 0.4) -> float:
    """Genome distance: c1*E/N + c2*D/N + c3*mean |weight delta|.

    E counts excess genes (beyond the other genome's highest marker), D
    disjoint ones, N is the larger gene count (at least 1).  Matching
    genes contribute only their mean absolute weight difference, summed
    left to right in ``a``'s innovation order.
    """
    innovs_a, innovs_b = a.structure.innovations, b.structure.innovations
    weights_a, weights_b = a.weights, b.weights
    positions_b = b.structure.positions
    diff_sum = 0.0
    matches = 0
    for innovation, weight in zip(innovs_a, weights_a):
        j = positions_b.get(innovation)
        if j is not None:
            diff_sum += abs(weight - weights_b[j])
            matches += 1
    max_a = innovs_a[-1] if innovs_a else -1
    max_b = innovs_b[-1] if innovs_b else -1
    # every marker beyond the other genome's last is unmatched: the excess genes
    excess = (len(innovs_a) - bisect.bisect_right(innovs_a, max_b)
              + len(innovs_b) - bisect.bisect_right(innovs_b, max_a))
    disjoint = len(innovs_a) + len(innovs_b) - 2 * matches - excess
    n = max(1, len(innovs_a), len(innovs_b))
    mean_diff = diff_sum / matches if matches else 0.0
    return c1 * excess / n + c2 * disjoint / n + c3 * mean_diff


def adjust_threshold(threshold: float, species_count: int, config: EvolutionConfig) -> float:
    """Per-generation threshold update: steady growth, extra on overshoot."""
    threshold = threshold * config.threshold_growth
    if species_count > config.max_species:
        threshold = threshold * config.overspeciation_factor
    return threshold


def speciate(
    population: Sequence[CppnGenome],
    previous: Sequence[Species],
    threshold: float,
    config: EvolutionConfig,
    rng: np.random.Generator,
    next_species_id: int,
) -> tuple[list[Species], int]:
    """Assign every genome to the first species within ``threshold``.

    Carried-over species keep their ids, stats and last generation's
    representatives; genomes matching none found a new species.  After
    assignment each surviving species draws a fresh representative from
    its current members for the next generation to speciate against.
    """
    species = [
        Species(sp.species_id, sp.representative, [], sp.best_fitness, sp.stagnation)
        for sp in previous
    ]
    c1, c2, c3 = config.excess_coefficient, config.disjoint_coefficient, config.weight_coefficient
    for idx, genome in enumerate(population):
        for sp in species:
            if compatibility(genome, sp.representative, c1, c2, c3) < threshold:
                sp.members.append(idx)
                break
        else:
            species.append(Species(next_species_id, genome, [idx]))
            next_species_id += 1
    species = [sp for sp in species if sp.members]
    for sp in species:
        sp.representative = population[sp.members[int(rng.integers(len(sp.members)))]]
    return species, next_species_id


def mutate(
    genome: CppnGenome,
    config: EvolutionConfig,
    generation: int,
    registry: InnovationRegistry,
    rng: np.random.Generator,
) -> CppnGenome:
    """Weight perturbation plus structural growth, at decayed rates.

    Weight events either nudge a gene by a uniform step or replace it
    outright; new links join any non-output node to any non-input node
    without closing a cycle; node insertion splits an enabled link into
    weight-1.0 in and old-weight out, disabling the original.

    Draw order, the same as one scalar call per draw: per gene in
    innovation order a weight-event check, and for an event a replace
    check and a uniform value (``uniform(-1, 1)`` or a step in
    ``uniform(-perturb_half_range, perturb_half_range)``); then the
    add-connection check; if it fires and a link is possible, ``integers``
    for the link and ``uniform(-1, 1)`` for its weight; then the add-node
    check; if it fires, ``integers`` for the link to split and for the
    activation.  Every double up to the add-connection check is taken
    from ``rng.random(k)`` blocks, and ``uniform(lo, hi)`` is formed as
    ``lo + (hi - lo) * u``, numpy's own formula.  A block is never longer
    than the count of doubles certain to be drawn next, so the values and
    the generator's state after the call are those of the scalar calls.

    The child's weights are a new tuple.  With weight events only, it
    keeps the parent's structure object; a new link or node derives a
    structure from the parent's (:meth:`Structure.with_link`,
    :meth:`Structure.with_split`), so no gene object is built and nothing
    already checked is checked again.
    """
    decay = config.decay_factor ** generation  # decayed_rates' values are base * decay
    rate = config.weight_mutation_rate * decay
    replace = config.weight_replace_fraction
    # numpy's uniform(-half, half) is low + span * u; both terms are formed once
    low, span = -config.perturb_half_range, config.perturb_half_range - -config.perturb_half_range
    structure, weights = genome.structure, genome.weights
    new = list(weights)
    changed = False
    n = len(weights)
    # certain from here: one check per gene, then the add-connection check
    block = rng.random(n + 1).tolist()
    end, k = n + 1, 0
    for i in range(n):
        if k == end:
            block, k, end = rng.random(n - i + 1).tolist(), 0, n - i + 1
        if block[k] >= rate:
            k += 1
            continue
        if end - k < 3:  # the block ends inside this event: add every draw now certain
            block = block[k:] + rng.random(n - i + 3 - (end - k)).tolist()
            k, end = 0, n - i + 3
        if block[k + 1] < replace:
            weight = -1.0 + 2.0 * block[k + 2]
        else:
            weight = weights[i] + (low + span * block[k + 2])
            if not -WEIGHT_LIMIT <= weight <= WEIGHT_LIMIT:
                weight = WEIGHT_LIMIT if weight > 0.0 else -WEIGHT_LIMIT
        k += 3
        new[i] = weight
        changed = True
    # every block ends at the add-connection check, so its value is left
    added = None  # the new link's position
    if block[k] < config.add_connection_rate * decay:
        # weight events leave the structure alone, so the parent's candidates serve
        candidates = _link_candidates(genome)
        if candidates:
            src, dst = candidates[int(rng.integers(len(candidates)))]
            innovation = registry.connection_innovation(src, dst)
            structure = structure.with_link(innovation, src, dst)
            added = structure.positions[innovation]
            new.insert(added, float(rng.uniform(-1.0, 1.0)))
            changed = True
    if rng.random() < config.add_node_rate * decay:
        # candidates in the order the links were added: the parent's, then the new one
        enabled = [i for i, on in enumerate(structure.enabled) if on and i != added]
        if added is not None:
            enabled.append(added)
        if enabled:
            pick = enabled[int(rng.integers(len(enabled)))]
            node_id, in_innov, out_innov = registry.split_link(
                structure.innovations[pick], structure.srcs[pick], structure.dsts[pick],
                {node.id for node in structure.nodes})
            activation = HIDDEN_ACTIVATION_NAMES[int(rng.integers(len(HIDDEN_ACTIVATION_NAMES)))]
            node = NodeGene(node_id, "hidden", activation)
            structure, old_weight = structure.with_split(pick, node, in_innov, out_innov), new[pick]
            # in ascending order, so each goes straight to its final position
            for innovation, weight in sorted(((in_innov, 1.0), (out_innov, old_weight))):
                new.insert(structure.positions[innovation], weight)
            changed = True
    if not changed:
        return genome
    return CppnGenome.of(structure, tuple(new))


def _link_candidates(genome: CppnGenome) -> list[tuple[int, int]]:
    """The links mutation may add: every absent (non-output, non-input) pair
    that closes no cycle, source-major; worked out once per structure."""
    structure = genome.structure
    candidates = structure.memo.get("link candidates")
    if candidates is None:
        present = set(zip(structure.srcs, structure.dsts))
        outgoing = adjacency(genome)
        candidates = structure.memo["link candidates"] = [
            (src.id, dst.id)
            for src in structure.nodes if src.role != "output"
            for dst in structure.nodes if dst.role != "input"
            if (src.id, dst.id) not in present and not would_create_cycle(outgoing, src.id, dst.id)
        ]
    return candidates


def crossover(
    parent_a: CppnGenome,
    parent_b: CppnGenome,
    fitness_a: float,
    fitness_b: float,
    rng: np.random.Generator,
) -> CppnGenome:
    """Recombine along matched innovation markers.

    The child copies the fitter parent's structure (node set plus
    disjoint and excess genes); matching genes take their weight from a
    random parent.  A gene disabled in either parent comes out disabled
    three times out of four.

    Draw order, the same as one scalar ``random()`` per draw: on equal
    fitness one draw picks the structure's parent; then, per gene of that
    parent in innovation order, one draw picking a matched gene's parent
    and one for the enable flag of a gene disabled in either parent.  The
    draws after the tie-break depend only on the two structures, so one
    ``rng.random(count)`` call takes them all.  The child keeps the fitter
    parent's structure object unless an enable flag changes.
    """
    if fitness_a > fitness_b:
        fitter, other = parent_a, parent_b
    elif fitness_b > fitness_a:
        fitter, other = parent_b, parent_a
    elif rng.random() < 0.5:
        fitter, other = parent_a, parent_b
    else:
        fitter, other = parent_b, parent_a
    structure, partner = fitter.structure, other.structure
    own, theirs = fitter.weights, other.weights
    partners = list(map(partner.positions.get, structure.innovations))
    enabled, partner_enabled = structure.enabled, partner.enabled
    disabled = [not (on and (j is None or partner_enabled[j])) for on, j in zip(enabled, partners)]
    draws = iter(rng.random(len(partners) - partners.count(None) + sum(disabled)).tolist())
    weights, flags = [], []
    for w, j, disabled_somewhere in zip(own, partners, disabled):
        weights.append(w if j is None or next(draws) < 0.5 else theirs[j])
        flags.append(not disabled_somewhere or next(draws) >= 0.75)
    flags = tuple(flags)
    if flags != enabled:
        structure = structure.with_enabled(flags)
    return CppnGenome.of(structure, tuple(weights))


def reproduce(
    population: Sequence[CppnGenome],
    fitnesses: Sequence[float],
    species: list[Species],
    config: EvolutionConfig,
    generation: int,
    registry: InnovationRegistry,
    rng: np.random.Generator,
) -> tuple[list[CppnGenome], list[str]]:
    """Build the next generation; returns (population, event log lines).

    Offspring quotas follow fitness sharing (species weight = mean of
    shifted member fitness), rounded by largest remainder so they sum to
    the population size exactly.  Stagnant species are culled unless they
    hold the run champion, which itself is guaranteed a slot unchanged.
    """
    pop_size = config.population_size
    events: list[str] = []
    best_idx = max(range(len(fitnesses)), key=lambda i: (fitnesses[i], -i))
    best_genome = population[best_idx]

    for sp in species:
        current_best = max(fitnesses[i] for i in sp.members)
        if current_best > sp.best_fitness:
            sp.best_fitness = current_best
            sp.stagnation = 0
        else:
            sp.stagnation += 1
    survivors = []
    for sp in species:
        if sp.stagnation <= config.stagnation_limit or best_idx in sp.members:
            survivors.append(sp)
        else:
            events.append(f"species {sp.species_id} removed after {sp.stagnation} stagnant generations")
    if all(sp.stagnation > config.stagnation_limit for sp in survivors):
        events.append("every species stagnant; restarting from the champion's species")
    species[:] = survivors

    min_fitness = min(fitnesses)
    if min_fitness < 0:
        adjusted = [f - min_fitness + 1e-9 for f in fitnesses]
    else:
        adjusted = list(fitnesses)
    weights = [sum(adjusted[i] for i in sp.members) / len(sp.members) for sp in survivors]
    total = sum(weights)
    if total <= 0.0:
        weights = [1.0] * len(survivors)
        total = float(len(survivors))
    exact = [w / total * pop_size for w in weights]
    quotas = [int(math.floor(e)) for e in exact]
    shortfall = pop_size - sum(quotas)
    by_remainder = sorted(range(len(exact)), key=lambda i: (quotas[i] - exact[i], i))
    for i in by_remainder[:shortfall]:
        quotas[i] += 1

    new_population: list[CppnGenome] = []
    elite_slots: set[int] = set()
    for sp, quota in zip(survivors, quotas):
        if quota == 0:
            continue
        ranked = sorted(sp.members, key=lambda i: (-fitnesses[i], i))
        slots = quota
        if len(sp.members) >= config.elitism_min_size:
            for i in ranked[: min(config.elitism, slots)]:
                elite_slots.add(len(new_population))
                new_population.append(population[i])
                slots -= 1
        pool = ranked[: max(1, math.ceil(config.survival_fraction * len(ranked)))]
        for _ in range(slots):
            if len(pool) >= 2 and rng.random() < config.crossover_rate:
                ja = int(rng.integers(len(pool)))
                jb = int(rng.integers(len(pool) - 1))
                if jb >= ja:
                    jb += 1
                ia, ib = pool[ja], pool[jb]
                child = crossover(population[ia], population[ib], fitnesses[ia], fitnesses[ib], rng)
            else:
                child = population[pool[int(rng.integers(len(pool)))]]
            new_population.append(mutate(child, config, generation, registry, rng))
    assert len(new_population) == pop_size, "offspring quotas must fill the population"

    if not any(child is best_genome for child in new_population):
        slot = next((i for i in range(pop_size - 1, -1, -1) if i not in elite_slots), pop_size - 1)
        new_population[slot] = best_genome
        events.append("champion re-inserted to preserve the best genome")
    return new_population, events


@dataclass
class GenerationStats:
    generation: int
    species_count: int
    threshold: float
    events: list[str]


@dataclass(eq=False)
class Evolution:
    """Run state: population, species, innovation registry, rng, threshold."""

    config: EvolutionConfig
    rng: np.random.Generator
    registry: InnovationRegistry
    population: list[CppnGenome]
    species: list[Species]
    threshold: float
    generation: int = 0
    next_species_id: int = 0

    @classmethod
    def start(cls, config: EvolutionConfig) -> Evolution:
        """Generation 0: minimal genomes drawn from ``default_rng(config.rng_seed)``."""
        rng = np.random.default_rng(config.rng_seed)
        population = [minimal_genome(rng) for _ in range(config.population_size)]
        return cls(config, rng, InnovationRegistry.primed(), population, [],
                   float(config.compatibility_threshold))

    def advance(self, fitnesses: Sequence[float], *, reproduce_population: bool = True) -> GenerationStats:
        """Consume the current generation's fitness and step the run forward.

        Speciation and the threshold update always happen (so the final
        generation still gets stats); reproduction is skipped on the last
        call of a run.
        """
        if len(fitnesses) != len(self.population):
            raise ValueError("fitness list must be parallel to the population")
        self.species, self.next_species_id = speciate(
            self.population, self.species, self.threshold, self.config, self.rng, self.next_species_id
        )
        stats = GenerationStats(self.generation, len(self.species), self.threshold, [])
        self.threshold = adjust_threshold(self.threshold, len(self.species), self.config)
        if reproduce_population:
            self.population, stats.events = reproduce(
                self.population, fitnesses, self.species, self.config,
                self.generation, self.registry, self.rng,
            )
            self.generation += 1
        for line in stats.events:
            log.info("generation %d: %s", stats.generation, line)
        return stats


def evolution_state(evo: Evolution) -> dict:
    """The run's full state as JSON-ready data; genomes are :func:`cppn.to_text` strings."""
    return {
        "generation": evo.generation,
        "threshold": evo.threshold,
        "next_species_id": evo.next_species_id,
        "rng_state": evo.rng.bit_generator.state,
        "registry": evo.registry.state(),
        "population": [to_text(g) for g in evo.population],
        "species": [
            {
                "id": sp.species_id,
                "representative": to_text(sp.representative),
                "best_fitness": sp.best_fitness,
                "stagnation": sp.stagnation,
            }
            for sp in evo.species
        ],
    }


def evolution_from_state(state: dict, config: EvolutionConfig) -> Evolution:
    """Inverse of :func:`evolution_state`; malformed data raises whatever reading it raises."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state["rng_state"]
    species = [
        Species(sp["id"], from_text(sp["representative"]), [],
                float(sp["best_fitness"]), int(sp["stagnation"]))
        for sp in state["species"]
    ]
    return Evolution(
        config,
        rng,
        InnovationRegistry.from_state(state["registry"]),
        [from_text(g) for g in state["population"]],
        species,
        float(state["threshold"]),
        int(state["generation"]),
        int(state["next_species_id"]),
    )
