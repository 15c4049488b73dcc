import numpy as np
import pytest

from dramn.adjacency import AdjacencyTensor, N_LAYERS
from dramn.errors import DataError
from dramn.selection import (
    aggregate_edges,
    build_report,
    composite_strength,
    minmax_normalize,
    node_strength,
    overlap,
    top_k,
    write_edge_list,
    write_strength_report,
)


def tensor_of(layers, t_start=20000):
    layers = np.asarray(layers, dtype=float)
    return AdjacencyTensor(layers=layers, n=layers.shape[0], source_window=t_start)


def ones_tensor(n=3, t_start=20000):
    return tensor_of(np.ones((n, n, N_LAYERS)), t_start)


class TestNodeStrength:
    def test_all_ones_layer(self):
        raw = node_strength([ones_tensor()], 0, 60000)
        np.testing.assert_array_equal(raw, np.full((N_LAYERS, 3), 3.0))

    def test_zero_tensors(self):
        raw = node_strength([tensor_of(np.zeros((3, 3, N_LAYERS)))], 0, 60000)
        np.testing.assert_array_equal(raw, 0.0)

    def test_additivity(self):
        one = node_strength([ones_tensor()], 0, 60000)
        two = node_strength([ones_tensor(), ones_tensor()], 0, 60000)
        np.testing.assert_array_equal(two, 2.0 * one)

    def test_absolute_weights(self):
        layers = np.zeros((2, 2, N_LAYERS))
        layers[:, :, 1] = [[0.0, -1.0], [-1.0, 0.0]]
        raw = node_strength([tensor_of(layers)], 0, 60000)
        np.testing.assert_array_equal(raw[1], [1.0, 1.0])

    def test_time_range_filter(self):
        inside = ones_tensor(t_start=20000)
        outside = ones_tensor(t_start=50000)
        raw = node_strength([inside, outside], 19000, 30000)
        np.testing.assert_array_equal(raw, np.full((N_LAYERS, 3), 3.0))

    def test_empty_range(self):
        with pytest.raises(DataError):
            node_strength([ones_tensor(t_start=1000)], 19000, 30000)


class TestMinmaxNormalize:
    def test_hand_example(self):
        raw = np.array([[1.0, 3.0, 5.0]])
        np.testing.assert_allclose(minmax_normalize(raw), [[0.0, 0.5, 1.0]])

    def test_constant_layer_zeros(self):
        np.testing.assert_array_equal(minmax_normalize(np.full((2, 4), 7.0)),
                                      np.zeros((2, 4)))

    def test_extremes_preserved(self):
        raw = np.array([[0.0, 0.25, 1.0]])
        np.testing.assert_allclose(minmax_normalize(raw), raw)


class TestComposite:
    def test_equal_layers(self):
        v = np.array([0.1, 0.5, 0.9])
        norm = np.tile(v, (5, 1))
        np.testing.assert_allclose(composite_strength(norm), 5.0 * v)

    def test_one_hot_layers(self):
        norm = np.zeros((3, 4))
        norm[0, 1] = 1.0
        norm[1, 2] = 1.0
        np.testing.assert_array_equal(composite_strength(norm), [0, 1, 1, 0])

    def test_zero(self):
        np.testing.assert_array_equal(composite_strength(np.zeros((5, 3))),
                                      np.zeros(3))


class TestTopK:
    def _report(self, composite):
        composite = np.asarray(composite, dtype=float)
        n = composite.size
        ranking = sorted(range(n), key=lambda i: (-composite[i], i))
        from dramn.selection import NodeStrengthReport

        return NodeStrengthReport(per_layer=np.zeros((5, n)),
                                  composite=composite, ranking=ranking,
                                  time_range=(0, 1))

    def test_all_channels(self):
        rep = self._report([0.3, 0.1, 0.2])
        assert top_k(rep, 3) == [0, 2, 1]

    def test_tie_break_by_index(self):
        rep = self._report([0.2, 0.9, 0.9, 0.1])
        assert set(top_k(rep, 2)) == {1, 2}
        assert top_k(rep, 2) == [1, 2]

    def test_argmax(self):
        rep = self._report([0.2, 0.9, 0.5])
        assert top_k(rep, 1) == [1]

    def test_out_of_range(self):
        rep = self._report([0.2, 0.9])
        with pytest.raises(DataError):
            top_k(rep, 3)
        with pytest.raises(DataError):
            top_k(rep, 0)

    def test_names_returned_when_present(self):
        rep = self._report([0.2, 0.9])
        rep.channel_names = ("a", "b")
        assert top_k(rep, 1) == ["b"]


class TestOverlap:
    def test_identical(self):
        assert overlap(range(20), range(20)) == (20, 1.0)

    def test_disjoint(self):
        assert overlap([1, 2], [3, 4]) == (0, 0.0)

    def test_partial(self):
        a = list(range(20))
        b = list(range(5, 25))
        count, jac = overlap(a, b)
        assert count == 15
        assert jac == pytest.approx(15 / 25)

    def test_empty(self):
        with pytest.raises(DataError):
            overlap([], [1])


class TestInvariants:
    def test_scale_invariant_ranking(self):
        rng = np.random.default_rng(0)
        layers = rng.standard_normal((5, 5, N_LAYERS))
        tensors = [tensor_of(layers), tensor_of(3.0 * layers)]
        rep_a = build_report([tensors[0]], 0, 60000)
        rep_b = build_report([tensors[1]], 0, 60000)
        assert rep_a.ranking == rep_b.ranking

    def test_planted_dominance(self):
        # channels 0..3 carry all coupling, channels 4..9 are inert
        layers = np.zeros((10, 10, N_LAYERS))
        rng = np.random.default_rng(1)
        block = np.abs(rng.standard_normal((4, 4, N_LAYERS))) + 0.5
        block = 0.5 * (block + block.transpose(1, 0, 2))
        layers[:4, :4, :] = block
        rep = build_report([tensor_of(layers)], 0, 60000)
        assert set(top_k(rep, 4)) == {0, 1, 2, 3}

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        layers = np.abs(rng.standard_normal((6, 6, N_LAYERS)))
        perm = rng.permutation(6)
        rep = build_report([tensor_of(layers)], 0, 60000)
        rep_p = build_report([tensor_of(layers[perm][:, perm, :])], 0, 60000)
        np.testing.assert_allclose(rep_p.composite, rep.composite[perm], atol=1e-12)


class TestReports:
    def test_strength_report_file(self, tmp_path):
        rng = np.random.default_rng(3)
        layers = np.abs(rng.standard_normal((3, 3, N_LAYERS)))
        rep = build_report([tensor_of(layers)], 0, 60000,
                           channel_names=("va", "vb", "vc"))
        path = tmp_path / "strength.tsv"
        write_strength_report(rep, path, meta={"config_hash": "xyz"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=xyz"
        header = [l for l in lines if l.startswith("channel")][0]
        assert header.split("\t") == ["channel", "layer1", "layer2", "layer3",
                                      "layer4", "layer5", "composite", "rank"]
        assert len([l for l in lines if not l.startswith("#")]) == 4

    def test_edge_list_top_fraction(self, tmp_path):
        agg = aggregate_edges([ones_tensor(4)], 0, 60000)
        path = tmp_path / "edges.tsv"
        write_edge_list(agg, path, top_fraction=0.5)
        rows = [l for l in path.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("source")]
        assert len(rows) == 3  # half of the 6 upper-triangle edges
