from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chartevo import cppn
from chartevo.cppn import ConnectionGene, CppnGenome, NodeGene, minimal_genome
from chartevo.substrate import (
    Grid,
    PhenotypeNetwork,
    SubstrateSpec,
    express,
    he_scale,
    phenotype_from_text,
    phenotype_to_text,
    standard_substrates,
)
from chartevo.types import ConfigError


def fixed_output_genome(weight_w=0.5, weight_leo=1.0, weight_bias=0.0):
    """Genome whose three outputs are constants driven by the bias input."""
    nodes = [NodeGene(i, "input", "linear") for i in range(7)]
    nodes += [NodeGene(i, "output", "linear") for i in (7, 8, 9)]
    conns = [
        ConnectionGene(0, 6, 7, weight_w, True),
        ConnectionGene(1, 6, 8, weight_bias, True),
        ConnectionGene(2, 6, 9, weight_leo, True),
    ]
    return CppnGenome(tuple(nodes), tuple(conns))


class TestGrid:
    def test_size(self):
        assert Grid(32, 2).size == 64
        assert Grid(1, 1).size == 1

    def test_single_node_at_origin(self):
        coords = Grid(1, 1).coordinates(0.5)
        assert coords.shape == (1, 3)
        assert list(coords[0]) == [0.0, 0.0, 0.5]

    def test_x_major_ordering(self):
        coords = Grid(3, 2).coordinates(-1.0)
        # consecutive rows share x while y alternates, matching a
        # row-major flattened (steps, channels) chart
        assert coords[0][0] == coords[1][0] == -1.0
        assert coords[0][1] == -1.0 and coords[1][1] == 1.0
        assert coords[2][0] == 0.0

    def test_axis_endpoints(self):
        coords = Grid(32, 2).coordinates(0.0)
        assert coords[0][0] == -1.0
        assert coords[-1][0] == 1.0
        assert np.all(coords[:, 2] == 0.0)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ConfigError):
            Grid(0, 2)


class TestSubstrateSpec:
    def test_standard_geometries(self):
        subs = standard_substrates()
        assert set(subs) == {"template", "network", "deep"}
        assert subs["template"].layer_sizes == (64, 1)
        assert subs["network"].layer_sizes == (64, 192, 48, 1)
        assert subs["deep"].layer_sizes == (64, 192, 96, 48, 24, 12, 1)

    def test_depths_divide_unit_interval(self):
        subs = standard_substrates()
        assert subs["template"].depths == (-1.0, 1.0)
        network = subs["network"].depths
        assert network[0] == -1.0 and network[-1] == 1.0
        assert network[1] == pytest.approx(-1 / 3)
        assert len(subs["deep"].depths) == 7

    def test_all_input_layers_match_chart_shape(self):
        for spec in standard_substrates().values():
            assert spec.layers[0] == Grid(32, 2)
            assert spec.layers[-1] == Grid(1, 1)

    def test_too_few_layers_rejected(self):
        with pytest.raises(ConfigError):
            SubstrateSpec("bad", (Grid(2, 2),))


class TestHeScale:
    def test_full_fan_in(self):
        w = np.ones((64, 1))
        scaled = he_scale(w, np.ones((64, 1), dtype=bool))
        assert np.allclose(scaled, np.sqrt(2.0 / 64.0))

    def test_partial_fan_in_counts_expressed_only(self):
        w = np.array([[2.0, 1.0], [2.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        mask = w != 0.0
        scaled = he_scale(w, mask)
        assert np.allclose(scaled[:, 0], 2.0 * np.sqrt(2.0 / 4.0))
        assert scaled[0, 1] == pytest.approx(np.sqrt(2.0))

    def test_empty_column_untouched(self):
        w = np.zeros((3, 2))
        w[:, 0] = 1.0  # value present but marked unexpressed
        mask = np.zeros((3, 2), dtype=bool)
        scaled = he_scale(w, mask)
        assert np.array_equal(scaled, w)
        assert np.all(np.isfinite(scaled))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            he_scale(np.zeros((2, 2)), np.zeros((3, 2), dtype=bool))


class TestExpress:
    def test_constant_genome_uniform_weights(self):
        net = express(fixed_output_genome(weight_w=0.5), standard_substrates()["template"])
        assert len(net.weights) == 1
        raw = np.full((64, 1), 0.5)
        assert np.array_equal(net.weights[0], he_scale(raw, np.ones(raw.shape, dtype=bool)))
        assert np.all(net.biases[0] == 0.0)

    def test_negative_gate_suppresses_all_links(self):
        net = express(fixed_output_genome(weight_leo=-1.0), standard_substrates()["network"])
        for w in net.weights:
            assert np.all(w == 0.0)

    def test_zero_gate_is_not_expressed(self):
        net = express(fixed_output_genome(weight_leo=0.0), standard_substrates()["template"])
        assert np.all(net.weights[0] == 0.0)

    def test_he_scaling_applied(self):
        scaled = express(fixed_output_genome(weight_w=0.5), standard_substrates()["template"])
        assert np.allclose(scaled.weights[0], 0.5 * np.sqrt(2.0 / 64.0))

    def test_bias_uses_constant_slot(self):
        net = express(fixed_output_genome(weight_bias=0.25), standard_substrates()["template"])
        assert np.all(net.biases[0] == 0.25)

    def test_matrix_shapes_chain(self):
        rng = np.random.default_rng(0)
        genome = minimal_genome(rng)
        net = express(genome, standard_substrates()["network"])
        assert [w.shape for w in net.weights] == [(64, 192), (192, 48), (48, 1)]
        assert [b.shape for b in net.biases] == [(192,), (48,), (1,)]
        assert net.layer_sizes == (64, 192, 48, 1)
        assert net.n_hidden_layers == 2

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        genome = minimal_genome(rng)
        spec = standard_substrates()["deep"]
        a = express(genome, spec)
        b = express(genome, spec)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_weight_depends_on_both_endpoints(self):
        # a genome reading the x coordinates of both endpoints should
        # produce a non-uniform weight matrix
        nodes = [NodeGene(i, "input", "linear") for i in range(7)]
        nodes += [NodeGene(i, "output", "linear") for i in (7, 8, 9)]
        conns = [
            ConnectionGene(0, 0, 7, 1.0, True),   # x of source
            ConnectionGene(1, 3, 7, -1.0, True),  # x of target
            ConnectionGene(2, 6, 9, 1.0, True),   # always expressed
        ]
        genome = CppnGenome(tuple(nodes), tuple(conns))
        spec = standard_substrates()["network"]
        w = express(genome, spec).weights[0]
        assert len(np.unique(w)) > 1
        # weight is x_src - x_tgt: first input node (x=-1) to first hidden (x=-1)
        assert w[0, 0] == pytest.approx(0.0)
        raw = spec.layer_coordinates(0)[:, :1] - spec.layer_coordinates(1)[:, 0]
        assert np.array_equal(w, he_scale(raw, np.ones(raw.shape, dtype=bool)))


class TestPhenotypeNetwork:
    def test_arrays_read_only(self):
        net = express(fixed_output_genome(), standard_substrates()["template"])
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 9.0

    def test_float64_arrays_not_copied(self):
        w, b = np.ones((2, 1)), np.zeros(1)
        net = PhenotypeNetwork((w,), (b,))
        assert net.weights[0] is w and net.biases[0] is b
        assert not w.flags.writeable

    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhenotypeNetwork(
                (np.zeros((4, 3)), np.zeros((2, 1))),
                (np.zeros(3), np.zeros(1)),
            )

    def test_bad_activation_rejected(self):
        text = self._small_text().replace("activation relu", "activation tanh")
        with pytest.raises(ValueError, match="line 2: expected 'activation relu'"):
            phenotype_from_text(text)

    def test_text_round_trip_byte_identical(self):
        rng = np.random.default_rng(2)
        genome = minimal_genome(rng)
        net = express(genome, standard_substrates()["network"])
        text = phenotype_to_text(net)
        again = phenotype_from_text(text)
        for wa, wb in zip(net.weights, again.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(net.biases, again.biases):
            assert np.array_equal(ba, bb)
        assert text.splitlines()[1] == "activation relu"
        assert phenotype_to_text(again) == text

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            phenotype_from_text("not a phenotype\n")

    def _small_text(self):
        net = PhenotypeNetwork((np.ones((2, 3)), np.ones((3, 1))),
                               (np.zeros(3), np.zeros(1)))
        return phenotype_to_text(net)

    @pytest.mark.parametrize("edit", [
        lambda t: t[:-1],                                        # final newline cut
        lambda t: t[:t.index("biases 1")],                       # section missing
        lambda t: t.replace("weights 1", "weigths 1"),           # mangled header
        lambda t: t.replace("activation relu", "activation"),    # activation missing
        lambda t: t.replace("layers 2 3 1", "layers 2 x 1"),     # bad size
        lambda t: t.replace("layers 2 3 1", "layers 2 3 0"),     # empty layer
        lambda t: t.replace("1.0 1.0 1.0\n", "1.0 1.0\n", 1),    # short row
        lambda t: t.replace("weights 0\n1.0 1.0 1.0\n", "weights 0\n"),  # row missing
        lambda t: t + "trailing\n",                              # extra content
        lambda t: t.replace("activation relu", "activation sigmoid"),  # not ReLU
    ])
    def test_text_malformations_raise_value_error(self, edit):
        text = edit(self._small_text())
        with pytest.raises(ValueError):
            phenotype_from_text(text)


def per_pair_express(genome, spec):
    """Reference expression: one CPPN call per layer pair for the links and
    one per layer for the biases, as separate input arrays."""
    weights, biases = [], []
    for i in range(len(spec.layers) - 1):
        coords_a, coords_b = spec.layer_coordinates(i), spec.layer_coordinates(i + 1)
        pair_a = np.repeat(coords_a, len(coords_b), axis=0)
        pair_b = np.tile(coords_b, (len(coords_a), 1))
        ones = np.ones((len(pair_a), 1))
        out = cppn.activate_batch(genome, np.concatenate([pair_a, pair_b, ones], axis=1))
        shape = (-1, len(coords_b))
        expressed = (out[:, 2] > 0.0).reshape(shape)
        weights.append(he_scale(np.where(expressed, out[:, 0].reshape(shape), 0.0), expressed))
        partner = np.zeros((len(coords_b), 3))
        bias_in = np.concatenate([coords_b, partner, np.ones((len(coords_b), 1))], axis=1)
        biases.append(cppn.activate_batch(genome, bias_in)[:, 1])
    return weights, biases


def genome_with_every_activation(rng):
    """A grown random genome whose hidden nodes cycle through every activation."""
    from chartevo.neat import EvolutionConfig, InnovationRegistry, mutate

    config = EvolutionConfig(population_size=2, generations=1, weight_mutation_rate=0.9,
                             add_connection_rate=0.6, add_node_rate=0.9)
    registry = InnovationRegistry.primed()
    genome = minimal_genome(rng)
    while sum(n.role == "hidden" for n in genome.nodes) < len(cppn.HIDDEN_ACTIVATION_NAMES):
        genome = mutate(genome, config, 0, registry, rng)
    hidden = [n for n in genome.nodes if n.role == "hidden"]
    names = cppn.HIDDEN_ACTIVATION_NAMES
    renamed = [NodeGene(n.id, "hidden", names[i % len(names)]) for i, n in enumerate(hidden)]
    nodes = [n for n in genome.nodes if n.role != "hidden"] + renamed
    return CppnGenome(tuple(nodes), genome.connections)


def nodes_with(hidden):
    nodes = [NodeGene(i, "input", "linear") for i in range(7)]
    nodes += [NodeGene(i, "output", "linear") for i in (7, 8, 9)]
    return nodes + list(hidden)


def constant_fed_genome():
    """Hidden nodes of every activation fed only by constant slots (both depths, the
    constant 1), and a hidden node that feeds only the bias: no link block asks for it."""
    names = cppn.HIDDEN_ACTIVATION_NAMES
    hidden = [NodeGene(10 + i, "hidden", name) for i, name in enumerate(names)]
    hidden.append(NodeGene(20, "hidden", "sine"))
    conns = []
    for i, name in enumerate(names):
        src = (2, 5, 6)[i % 3]
        conns.append(ConnectionGene(len(conns), src, 10 + i, 1.5 - 0.7 * i, True))
        for dst in (7, 8, 9):
            conns.append(ConnectionGene(len(conns), 10 + i, dst, 0.9 - 0.4 * i + 0.1 * dst, True))
    conns.append(ConnectionGene(len(conns), 0, 20, 2.0, True))
    conns.append(ConnectionGene(len(conns), 20, 8, -1.0, True))
    conns.append(ConnectionGene(len(conns), 3, 7, 0.3, True))
    return CppnGenome(tuple(nodes_with(hidden)), tuple(conns))


def genome_missing_output(missing):
    """Every input feeds every output but ``missing``, which has no enabled incoming link."""
    conns = [ConnectionGene(3 * src + i, src, dst, 0.25 * (src - 3) + 0.1 * i, dst != missing)
             for src in range(7) for i, dst in enumerate((7, 8, 9))]
    return CppnGenome(tuple(nodes_with(())), tuple(conns))


def dangling_genome():
    """A hidden node that feeds no output at all, beside the minimal genome's links."""
    base = minimal_genome(np.random.default_rng(4))
    extra = (ConnectionGene(100, 1, 10, 1.0, True),)
    return CppnGenome(tuple(base.nodes) + (NodeGene(10, "hidden", "sigmoid"),),
                      base.connections + extra)


def sole_link_genome():
    """Each output has one negative link from a coordinate that is 0.0 at some nodes."""
    conns = [ConnectionGene(0, 1, 7, -0.5, True), ConnectionGene(1, 4, 8, -1.5, True),
             ConnectionGene(2, 6, 9, 1.0, True)]
    return CppnGenome(tuple(nodes_with(())), tuple(conns))


def assert_same_bytes(net, genome, spec):
    weights, biases = per_pair_express(genome, spec)
    assert [w.tobytes() for w in net.weights] == [w.tobytes() for w in weights]
    assert [b.tobytes() for b in net.biases] == [b.tobytes() for b in biases]


SUBSTRATE_NAMES = ["template", "network", "deep"]


class TestBlockExpression:
    @given(seed=st.integers(0, 2**31 - 1), name=st.sampled_from(SUBSTRATE_NAMES))
    @settings(max_examples=30, deadline=None)
    def test_equals_per_pair_queries(self, seed, name):
        genome = genome_with_every_activation(np.random.default_rng(seed))
        spec = standard_substrates()[name]
        assert_same_bytes(express(genome, spec), genome, spec)

    @pytest.mark.parametrize("name", SUBSTRATE_NAMES)
    @pytest.mark.parametrize("make", [
        constant_fed_genome,
        lambda: genome_missing_output(7),
        lambda: genome_missing_output(8),
        lambda: genome_missing_output(9),
        dangling_genome,
        sole_link_genome,
    ], ids=["constant_fed", "no_weight_link", "no_bias_link", "no_gate_link", "dangling",
            "sole_link"])
    def test_corner_genomes_equal_per_pair_queries(self, make, name):
        genome = make()
        spec = standard_substrates()[name]
        assert_same_bytes(express(genome, spec), genome, spec)

    def _spy(self, monkeypatch):
        calls = []
        real = cppn.activate_batch

        def spy(genome, inputs, outputs=cppn.OUTPUT_IDS):
            calls.append((inputs, outputs))
            return real(genome, inputs, outputs)

        monkeypatch.setattr(cppn, "activate_batch", spy)
        express(minimal_genome(np.random.default_rng(2)), standard_substrates()["network"])
        return calls

    def test_one_cppn_call_per_layer_pair_and_one_for_biases(self, monkeypatch):
        link = (cppn.WEIGHT_OUTPUT, cppn.LEO_OUTPUT)
        outputs = [outputs for _, outputs in self._spy(monkeypatch)]
        assert outputs == [link, link, link, (cppn.BIAS_OUTPUT,)]

    def test_no_link_table_built(self, monkeypatch):
        # seven columns per call, none longer than the network's largest layer (192)
        sizes = [(len(inputs), max(np.size(c) for c in inputs)) for inputs, _ in self._spy(monkeypatch)]
        assert sizes == [(7, 192), (7, 192), (7, 48), (7, 192 + 48 + 1)]


class TestQueryCache:
    def test_queries_match_per_layer_construction(self):
        spec = standard_substrates()["network"]
        for i, columns in enumerate(spec.link_columns):
            coords_a, coords_b = spec.layer_coordinates(i), spec.layer_coordinates(i + 1)
            shape = (len(coords_a), len(coords_b))
            rows = np.stack([np.broadcast_to(c, shape).ravel() for c in columns], axis=1)
            assert np.array_equal(rows[:, :3], np.repeat(coords_a, len(coords_b), axis=0))
            assert np.array_equal(rows[:, 3:6], np.tile(coords_b, (len(coords_a), 1)))
            assert np.array_equal(rows[:, 6], np.ones(len(rows)))
        coords = np.concatenate([spec.layer_coordinates(i) for i in range(1, len(spec.layers))])
        rows = np.stack([np.broadcast_to(c, len(coords)) for c in spec.bias_columns], axis=1)
        assert np.array_equal(rows[:, :3], coords)
        assert not rows[:, 3:6].any()
        assert np.array_equal(rows[:, 6], np.ones(len(rows)))

    def test_built_once_per_spec(self):
        spec = standard_substrates()["network"]
        links, biases = spec.link_columns, spec.bias_columns
        assert spec.link_columns is links and spec.bias_columns is biases
        arrays = [c for block in links + (biases,) for c in block if isinstance(c, np.ndarray)]
        # four coordinate columns per pair, but the one-node output layer's are floats
        assert len(arrays) == 3 * 4 - 2 + 3
        assert not any(a.flags.writeable for a in arrays)
