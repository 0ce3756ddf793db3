from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chartevo import cppn
from chartevo.cppn import (
    ACTIVATIONS,
    ConnectionGene,
    CppnGenome,
    NodeGene,
    WEIGHT_LIMIT,
    activate_batch,
    from_text,
    minimal_genome,
    to_text,
    would_create_cycle,
)
from chartevo.substrate import Grid, SubstrateSpec


def base_nodes():
    nodes = [NodeGene(i, "input", "linear") for i in range(7)]
    nodes += [NodeGene(i, "output", "linear") for i in (7, 8, 9)]
    return nodes


def genome_with(conns, hidden=()):
    nodes = base_nodes() + list(hidden)
    return CppnGenome(tuple(nodes), tuple(conns))


def activate(genome, inputs):
    """(weight, bias, leo) for one input row, through a one-row batch."""
    w, b, leo = activate_batch(genome, np.asarray(inputs, dtype=np.float64).reshape(1, 7))[0]
    return float(w), float(b), float(leo)


# depths -1, -0.5, 0, 0.5, 1: nodes at (0.5, 0, 0) and at (0.5, 0.5, 0.5)
BIAS_SPEC = SubstrateSpec("bias", (Grid(1, 1), Grid(1, 1), Grid(5, 5), Grid(5, 5), Grid(1, 1)))


def query_bias(genome, coord):
    """Bias output for the node at ``coord``: its coordinates, a zero partner slot and 1."""
    coords = np.concatenate([BIAS_SPEC.layer_coordinates(i) for i in range(1, len(BIAS_SPEC.layers))])
    rows = np.flatnonzero((coords == coord).all(axis=1))
    assert len(rows) == 1
    inputs = np.concatenate([coords[rows], np.zeros((1, 3)), np.ones((1, 1))], axis=1)
    return float(activate_batch(genome, inputs)[0, 1])


def random_genome(rng, n_mutations=8):
    """Random DAG grown by the same primitive moves evolution uses."""
    from chartevo.neat import EvolutionConfig, InnovationRegistry, mutate

    config = EvolutionConfig(
        population_size=2, generations=1,
        weight_mutation_rate=0.9, add_connection_rate=0.5, add_node_rate=0.5,
    )
    registry = InnovationRegistry.primed()
    genome = minimal_genome(rng)
    for _ in range(n_mutations):
        genome = mutate(genome, config, 0, registry, rng)
    return genome


def recursive_reference(genome, inputs):
    """Independent oracle: memoized recursive descent from each output."""
    incoming = {}
    for c in genome.connections:
        if c.enabled:
            incoming.setdefault(c.dst, []).append(c)
    nodes = {n.id: n for n in genome.nodes}
    memo = {}

    def value(nid):
        if nid in memo:
            return memo[nid]
        node = nodes[nid]
        if node.role == "input":
            result = np.asarray(inputs)[..., nid]
        else:
            pre = 0.0
            for c in incoming.get(nid, ()):
                pre = pre + c.weight * value(c.src)
            pre = np.asarray(pre, dtype=np.float64) + np.zeros(np.asarray(inputs).shape[0])
            result = pre if node.role == "output" else ACTIVATIONS[node.activation](pre)
        memo[nid] = result
        return result

    return np.stack([value(7), value(8), value(9)], axis=-1)


class TestActivationPrimitives:
    def test_closed_forms_at_reference_points(self):
        a = ACTIVATIONS
        assert a["sigmoid"](np.array([0.0]))[0] == pytest.approx(0.5)
        assert a["sigmoid"](np.array([1.0]))[0] == pytest.approx(1 / (1 + math.exp(-1)))
        assert a["sigmoid"](np.array([-1.0]))[0] == pytest.approx(1 / (1 + math.e))
        assert a["gaussian"](np.array([0.0]))[0] == pytest.approx(1.0)
        assert a["gaussian"](np.array([1.0]))[0] == pytest.approx(math.exp(-1))
        assert a["gaussian"](np.array([-1.0]))[0] == pytest.approx(math.exp(-1))
        assert a["sine"](np.array([0.0]))[0] == 0.0
        assert a["sine"](np.array([1.0]))[0] == pytest.approx(math.sin(1))
        assert a["linear"](np.array([-1.0]))[0] == -1.0
        assert a["absolute"](np.array([-1.0]))[0] == 1.0
        assert a["absolute"](np.array([1.0]))[0] == 1.0

    def test_sigmoid_saturates_without_overflow(self):
        out = ACTIVATIONS["sigmoid"](np.array([-1e9, 1e9]))
        assert out[0] < 1e-20
        assert out[1] == 1.0
        assert np.all(np.isfinite(out))


class TestGenomeValidation:
    def test_minimal_genome_shape(self):
        g = minimal_genome(np.random.default_rng(0))
        assert len(g.nodes) == 10
        assert len(g.connections) == 21
        assert [c.innovation for c in g.connections] == list(range(21))
        assert all(-1.0 <= c.weight <= 1.0 for c in g.connections)

    def test_cycle_rejected(self):
        hidden = [NodeGene(10, "hidden", "sine"), NodeGene(11, "hidden", "sine")]
        conns = [
            ConnectionGene(0, 10, 11, 1.0, True),
            ConnectionGene(1, 11, 10, 1.0, True),
        ]
        with pytest.raises(ValueError, match="cycle"):
            genome_with(conns, hidden)

    def test_disabled_connections_also_checked_for_cycles(self):
        hidden = [NodeGene(10, "hidden", "sine"), NodeGene(11, "hidden", "sine")]
        conns = [
            ConnectionGene(0, 10, 11, 1.0, False),
            ConnectionGene(1, 11, 10, 1.0, False),
        ]
        with pytest.raises(ValueError, match="cycle"):
            genome_with(conns, hidden)

    def test_duplicate_innovation_rejected(self):
        conns = [ConnectionGene(0, 0, 7, 1.0, True), ConnectionGene(0, 1, 7, 1.0, True)]
        with pytest.raises(ValueError, match="innovation"):
            genome_with(conns)

    def test_connection_to_input_rejected(self):
        with pytest.raises(ValueError, match="input"):
            genome_with([ConnectionGene(0, 1, 0, 1.0, True)])

    def test_missing_fixed_nodes_rejected(self):
        nodes = base_nodes()[1:]
        with pytest.raises(ValueError):
            CppnGenome(tuple(nodes), ())

    def test_weight_limit_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            ConnectionGene(0, 0, 7, 3.5, True)


@dataclasses.dataclass(frozen=True)
class ScalarCheckedGene:
    """The gene class as it was before its hand-written constructor: the oracle."""

    innovation: int
    src: int
    dst: int
    weight: float
    enabled: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.weight):
            raise ValueError("connection weight must be finite")
        if abs(self.weight) > WEIGHT_LIMIT:
            raise ValueError(f"connection weight {self.weight} outside [-{WEIGHT_LIMIT}, {WEIGHT_LIMIT}]")


ABOVE_LIMIT = math.nextafter(WEIGHT_LIMIT, math.inf)
gene_fields = st.tuples(
    st.integers(0, 300), st.integers(0, 12), st.integers(7, 12),
    st.sampled_from([0.0, -0.0, 1.0, -2.5, WEIGHT_LIMIT, -WEIGHT_LIMIT]) | st.floats(-3.0, 3.0),
    st.booleans(),
)


class TestConnectionGene:
    @pytest.mark.parametrize("weight, message", [
        (math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be finite"),
        (ABOVE_LIMIT, "outside"), (-ABOVE_LIMIT, "outside"), (np.float64(np.nan), "must be finite"),
    ])
    def test_bad_weights_refused_with_the_old_message(self, weight, message):
        with pytest.raises(ValueError, match=message) as new:
            ConnectionGene(0, 0, 7, weight, True)
        with pytest.raises(ValueError) as old:
            ScalarCheckedGene(0, 0, 7, weight, True)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("weight", [WEIGHT_LIMIT, -WEIGHT_LIMIT, 0.0, -0.0])
    def test_limit_itself_accepted(self, weight):
        assert ConnectionGene(0, 0, 7, weight, True).weight is weight

    def test_fields_are_frozen(self):
        gene = ConnectionGene(0, 0, 7, 0.5, True)
        for field in dataclasses.fields(gene):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(gene, field.name, getattr(gene, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            del gene.weight
        assert gene == ConnectionGene(0, 0, 7, 0.5, True)

    def test_no_instance_dict(self):
        gene = ConnectionGene(0, 0, 7, 0.5, True)
        assert not hasattr(gene, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(gene, "extra", 1)

    @given(gene_fields, gene_fields)
    @settings(max_examples=200)
    def test_eq_hash_repr_match_the_old_class(self, a, b):
        new_a, new_b = ConnectionGene(*a), ConnectionGene(*b)
        old_a, old_b = ScalarCheckedGene(*a), ScalarCheckedGene(*b)
        assert (new_a == new_b) == (old_a == old_b)
        assert new_a == ConnectionGene(*a) and hash(new_a) == hash(ConnectionGene(*a))
        assert hash(new_a) == hash(old_a)
        assert repr(new_a) == repr(old_a).replace(type(old_a).__qualname__, "ConnectionGene")
        assert dataclasses.astuple(new_a) == dataclasses.astuple(old_a)
        assert new_a != old_a  # as before, a gene equals only genes of its own class

    def test_smaller_than_the_old_class(self):
        def traced_bytes(cls):
            weights = [0.25 + i * 1e-6 for i in range(1000)]
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                genes = [cls(5, 1, 7, w, True) for w in weights]
                return tracemalloc.get_traced_memory()[0] - start, genes
            finally:
                tracemalloc.stop()

        assert traced_bytes(ConnectionGene)[0] < traced_bytes(ScalarCheckedGene)[0]


def scalar_minimal_genome(rng):
    """The minimal genome as built with one scalar ``uniform`` per weight: the oracle."""
    nodes = [NodeGene(i, "input", "linear") for i in range(7)]
    nodes += [NodeGene(i, "output", "linear") for i in (7, 8, 9)]
    conns = []
    innovation = 0
    for src in range(7):
        for dst in (7, 8, 9):
            weight = float(rng.uniform(-1.0, 1.0))
            conns.append(ConnectionGene(innovation, src, dst, weight, True))
            innovation += 1
    return CppnGenome(tuple(nodes), tuple(conns))


class TestMinimalGenomeDraws:
    @given(st.integers(0, 2**63 - 1), st.integers(1, 4))
    @settings(max_examples=100)
    def test_equals_scalar_draws(self, seed, count):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(count):
            assert to_text(minimal_genome(rng)) == to_text(scalar_minimal_genome(oracle_rng))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestActivate:
    def test_no_connections_all_zero(self):
        g = genome_with([])
        assert activate(g, [1, 1, 1, 1, 1, 1, 1]) == (0.0, 0.0, 0.0)

    def test_single_connection_linear(self):
        g = genome_with([ConnectionGene(0, 6, 7, 0.75, True)])
        w, b, leo = activate(g, [0, 0, 0, 0, 0, 0, 1.0])
        assert (w, b, leo) == (0.75, 0.0, 0.0)

    def test_disabled_connection_contributes_nothing(self):
        g = genome_with([ConnectionGene(0, 6, 7, 0.75, False)])
        assert activate(g, [0, 0, 0, 0, 0, 0, 1.0])[0] == 0.0

    def test_difference_of_coordinates(self):
        # weight output = x2 - x1
        g = genome_with([
            ConnectionGene(0, 3, 7, 1.0, True),
            ConnectionGene(1, 0, 7, -1.0, True),
        ])
        w, _, leo = activate(g, [-1.0, 0, 0, 1.0, 0, 0, 1.0])
        assert w == 2.0

    def test_hidden_activation_applied(self):
        hidden = [NodeGene(10, "hidden", "gaussian")]
        g = genome_with(
            [ConnectionGene(0, 0, 10, 1.0, True), ConnectionGene(1, 10, 7, 1.0, True)],
            hidden,
        )
        w, _, _ = activate(g, [2.0, 0, 0, 0, 0, 0, 0])
        assert w == pytest.approx(math.exp(-4.0))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        g = random_genome(rng)
        inputs = rng.uniform(-1, 1, (16, 7))
        batch = activate_batch(g, inputs)
        for i in range(16):
            assert tuple(batch[i]) == activate(g, inputs[i])

    def test_repeatable(self):
        rng = np.random.default_rng(9)
        g = random_genome(rng)
        inputs = rng.uniform(-1, 1, (4, 7))
        assert np.array_equal(activate_batch(g, inputs), activate_batch(g, inputs))


class TestAgainstRecursiveOracle:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_topological_equals_recursive(self, seed):
        rng = np.random.default_rng(seed)
        g = random_genome(rng, n_mutations=10)
        inputs = rng.uniform(-1, 1, (8, 7))
        assert np.array_equal(activate_batch(g, inputs), recursive_reference(g, inputs))

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_signed_zeros_equal_recursive(self, activation):
        # a lone negative link from a zero input adds -0.0 to 0.0: every value is +0.0
        g = genome_with([ConnectionGene(0, 0, 7, -1.0, True), ConnectionGene(1, 0, 10, -1.0, True),
                         ConnectionGene(2, 10, 8, 1.0, True), ConnectionGene(3, 10, 9, -2.0, True)],
                        [NodeGene(10, "hidden", activation)])
        inputs = np.zeros((3, 7))
        inputs[1, 0], inputs[2, 0] = 0.5, -0.5
        assert activate_batch(g, inputs).tobytes() == recursive_reference(g, inputs).tobytes()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_disabled_equals_removed(self, seed):
        rng = np.random.default_rng(seed)
        g = random_genome(rng, n_mutations=10)
        stripped = CppnGenome(g.nodes, tuple(c for c in g.connections if c.enabled))
        inputs = rng.uniform(-1, 1, (4, 7))
        assert np.array_equal(activate_batch(g, inputs), activate_batch(stripped, inputs))


def product_rows(columns):
    """The row form of seven broadcastable columns: one row per element of their product."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    return np.stack([np.broadcast_to(c, shape).ravel() for c in columns], axis=1), shape


class TestColumnForm:
    def _columns(self, rng, n_a, n_b):
        a, b = rng.uniform(-1, 1, (n_a, 2)), rng.uniform(-1, 1, (n_b, 2))
        return (a[:, :1], a[:, 1:], -0.5, b[:, 0].reshape(1, -1), b[:, 1].reshape(1, -1), 0.5, 1.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_equals_row_form_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        g = random_genome(rng, n_mutations=12)
        columns = self._columns(rng, 5, 3)
        rows, shape = product_rows(columns)
        expected = activate_batch(g, rows)
        for outputs in (cppn.OUTPUT_IDS, (cppn.WEIGHT_OUTPUT, cppn.LEO_OUTPUT), (cppn.BIAS_OUTPUT,)):
            wanted = expected[:, [cppn.OUTPUT_IDS.index(node_id) for node_id in outputs]]
            assert activate_batch(g, rows, outputs).tobytes() == wanted.tobytes()
            values = activate_batch(g, columns, outputs)
            for j, value in enumerate(values):
                assert np.broadcast_to(value, shape).ravel().tobytes() == wanted[:, j].tobytes()

    def test_sums_widen_only_where_sides_mix(self):
        hidden = [NodeGene(10, "hidden", "sine"), NodeGene(11, "hidden", "gaussian")]
        g = genome_with([
            ConnectionGene(0, 0, 10, 1.0, True),   # source side only
            ConnectionGene(1, 3, 11, 1.0, True),   # target side only
            ConnectionGene(2, 10, 7, 1.0, True),
            ConnectionGene(3, 11, 7, 1.0, True),   # the weight mixes both sides
            ConnectionGene(4, 10, 9, 1.0, True),
            ConnectionGene(5, 6, 8, 0.5, True),    # the bias reads the constant only
        ], hidden)
        weight, bias, leo = activate_batch(g, self._columns(np.random.default_rng(0), 5, 3))
        assert np.shape(weight) == (5, 3)
        assert np.shape(leo) == (5, 1)
        assert bias == 0.5 and np.ndim(bias) == 0

    def test_output_without_links_is_zero(self):
        g = genome_with([ConnectionGene(0, 0, 7, 1.0, True), ConnectionGene(1, 6, 9, 1.0, False)])
        weight, leo = activate_batch(g, self._columns(np.random.default_rng(1), 4, 2),
                                     (cppn.WEIGHT_OUTPUT, cppn.LEO_OUTPUT))
        assert np.shape(weight) == (4, 1)
        assert leo == 0.0 and np.ndim(leo) == 0

    def test_evaluates_only_nodes_that_feed_the_outputs(self, monkeypatch):
        calls = []
        monkeypatch.setitem(cppn.ACTIVATIONS, "sine", lambda a: calls.append(np.shape(a)) or np.sin(a))
        hidden = [NodeGene(10, "hidden", "sine")]
        g = genome_with([ConnectionGene(0, 0, 10, 1.0, True), ConnectionGene(1, 10, 8, 1.0, True),
                         ConnectionGene(2, 6, 7, 1.0, True)], hidden)
        columns = self._columns(np.random.default_rng(2), 4, 2)
        activate_batch(g, columns, (cppn.WEIGHT_OUTPUT, cppn.LEO_OUTPUT))
        assert calls == []
        activate_batch(g, columns, (cppn.BIAS_OUTPUT,))
        assert calls == [(4, 1)]

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError):
            activate_batch(genome_with([]), (0.0,) * 6)


class TestQueries:
    def test_bias_query_zero_fills_partner(self):
        # bias output reads x2; zero-filled partner slot must yield 0
        g = genome_with([ConnectionGene(0, 3, 8, 1.0, True)])
        assert query_bias(g, (0.5, 0.5, 0.5)) == 0.0
        # and the first coordinate is passed through
        g2 = genome_with([ConnectionGene(0, 0, 8, 1.0, True)])
        assert query_bias(g2, (0.5, 0, 0)) == 0.5

    def test_constant_input_slot(self):
        g = genome_with([ConnectionGene(0, 6, 9, 2.0, True)])
        _, _, leo = activate(g, [0, 0, 0, 0, 0, 0, 1.0])
        assert leo == 2.0


class TestCycleGuard:
    def test_direct_cycle_detected(self):
        hidden = [NodeGene(10, "hidden", "sine"), NodeGene(11, "hidden", "sine")]
        g = genome_with([ConnectionGene(0, 10, 11, 1.0, True)], hidden)
        assert would_create_cycle(cppn.adjacency(g), 11, 10)
        assert not would_create_cycle(cppn.adjacency(g), 0, 10)

    def test_self_loop_detected(self):
        g = genome_with([])
        assert would_create_cycle(cppn.adjacency(g), 7, 7)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_agrees_with_topological_sort(self, seed):
        # one adjacency map serves every pair; adding the link must fail the
        # constructor's Kahn sort exactly when a cycle is reported
        g = random_genome(np.random.default_rng(seed), n_mutations=10)
        outgoing = cppn.adjacency(g)
        present = {(c.src, c.dst) for c in g.connections}
        innovation = max(c.innovation for c in g.connections) + 1
        ids = [n.id for n in g.nodes]
        for src in ids:
            for dst in ids:
                if (src, dst) in present or dst in cppn.INPUT_IDS:
                    continue
                link = ConnectionGene(innovation, src, dst, 1.0, True)
                try:
                    CppnGenome(g.nodes, g.connections + (link,))
                    cyclic = False
                except ValueError:
                    cyclic = True
                assert would_create_cycle(outgoing, src, dst) == cyclic


class TestSerialization:
    def test_round_trip_minimal(self):
        g = minimal_genome(np.random.default_rng(3))
        assert from_text(to_text(g)) == g

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_round_trip_random(self, seed):
        g = random_genome(np.random.default_rng(seed))
        again = from_text(to_text(g))
        assert again == g

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            from_text("not a genome\n")

    def test_missing_final_newline_refused(self):
        text = to_text(minimal_genome(np.random.default_rng(3)))
        with pytest.raises(ValueError, match="final newline"):
            from_text(text[:-1])
        # a cut inside the last weight would otherwise load as another genome
        with pytest.raises(ValueError, match="final newline"):
            from_text(text[:-4])
