import dataclasses
import types

import numpy as np
import pytest

from dramn.adjacency import AdjacencyTensor, SequenceSample
from dramn.dmd import TimeSeriesWindow
from dramn.errors import DataError
from dramn.evaluation import predict_proba
from dramn.model import (
    GCN_PARAM_ORDER,
    ModelDims,
    PARAM_ORDER,
    ForwardTrace,
    _sigmoid,
    compress_means,
    forward_trace_batch,
    gcn_forward_trace_batch,
    init_gcn_params,
    init_params,
)
from dramn.store import load_checkpoint, save_checkpoint
from dramn.training import Standardizer, stack_inputs

DIMS = ModelDims(n=4, f=8, h=8, d=5, l_seq=3)
T = 20  # samples per raw window


def make_sample(rng, dims=DIMS, label=1):
    windows, tensors = [], []
    for t in range(dims.l_seq):
        data = rng.standard_normal((T, dims.n))
        windows.append(TimeSeriesWindow(data=data, dt=0.001, t_start=t * 100))
        raw = rng.standard_normal((dims.n, dims.n, dims.d))
        raw = 0.5 * (raw + raw.transpose(1, 0, 2))
        peak = np.abs(raw).max(axis=(0, 1), keepdims=True)
        tensors.append(AdjacencyTensor(layers=raw / peak, n=dims.n,
                                       source_window=t * 100))
    return SequenceSample(windows=windows, tensors=tensors, label=label,
                          scenario_id="s0", t_end=0)


def trace_of(sample, params):
    """The batched forward trace of one sample, as a batch of one."""
    means, layers, _ = stack_inputs([sample])
    return forward_trace_batch(means, layers, params)


def prob_of(sample, params):
    return float(trace_of(sample, params).p[0])


def zero_params(seed):
    params = init_params(DIMS, seed)
    for name in PARAM_ORDER:
        getattr(params, name)[...] = 0.0
    return params


class TestTemporalCompress:
    def test_zero_input_zero_biases(self):
        params = init_params(DIMS, 0)
        params.proj_b[:] = 0.0
        params.conv_shift[...] = 0.0
        out = compress_means(np.zeros(DIMS.n), params)
        np.testing.assert_array_equal(out, np.zeros((DIMS.n, DIMS.f)))

    def test_constant_input_equal_rows(self):
        params = init_params(DIMS, 1)
        out = compress_means(np.full((T, DIMS.n), 3.2).mean(axis=0), params)
        np.testing.assert_allclose(out, out[0][None, :].repeat(DIMS.n, axis=0))

    def test_matches_two_step_reference(self):
        # Scale and shift every sample, average over time, then project:
        # the map is affine, so embedding the window's channel means is the same.
        rng = np.random.default_rng(2)
        params = init_params(DIMS, 2)
        x = rng.standard_normal((T, DIMS.n))
        got = compress_means(x.mean(axis=0), params)
        pooled = (params.conv_scale * x + params.conv_shift).mean(axis=0)
        want = np.outer(pooled, params.proj_w) + params.proj_b
        np.testing.assert_allclose(got, want, atol=1e-12)


def mixed_graph(layers, alpha):
    """The effective graph the trace mixes from one (n, n, d) layer stack."""
    n, _, d = layers.shape
    params = init_params(ModelDims(n=n, f=2, h=2, d=d, l_seq=1), 0)
    params.alpha[:] = alpha
    return forward_trace_batch(np.zeros((1, 1, n)), layers[None, None], params).geff[0, 0]


class TestMixLayers:
    def test_one_hot(self):
        rng = np.random.default_rng(4)
        layers = rng.standard_normal((4, 4, 5))
        alpha = np.zeros(5)
        alpha[2] = 1.0
        np.testing.assert_array_equal(mixed_graph(layers, alpha), layers[:, :, 2])

    def test_zero_alpha(self):
        layers = np.ones((3, 3, 5))
        np.testing.assert_array_equal(mixed_graph(layers, np.zeros(5)),
                                      np.zeros((3, 3)))

    def test_uniform_sum(self):
        rng = np.random.default_rng(5)
        layers = rng.standard_normal((3, 3, 5))
        np.testing.assert_allclose(mixed_graph(layers, np.ones(5)),
                                   layers.sum(axis=2), atol=1e-12)


class TestCellStep:
    def test_all_zero(self):
        rng = np.random.default_rng(6)
        trace = trace_of(make_sample(rng), zero_params(6))
        # every gate is sigmoid(0) = 0.5 and g = tanh(0) = 0: nothing is stored
        for c in trace.c_prev[1:]:
            np.testing.assert_array_equal(c, 0.0)
        np.testing.assert_array_equal(trace.h_last, 0.0)

    def test_unit_memory_hand_value(self):
        rng = np.random.default_rng(7)
        params = zero_params(7)
        params.b[3] = np.arctanh(0.5)  # the g gate
        trace = trace_of(make_sample(rng), params)
        # gates all sigmoid(0) = 0.5 and g = 0.5: c1 = 0.25, then
        # c2 = f c1 + i g = 0.375, c3 = 0.4375, h3 = 0.5 tanh(c3)
        np.testing.assert_allclose(trace.c_prev[1], 0.25)
        np.testing.assert_allclose(trace.c_prev[2], 0.375)
        np.testing.assert_allclose(trace.h_last, 0.5 * np.tanh(0.4375))

    def test_zero_graph_annihilates_input(self):
        rng = np.random.default_rng(8)
        params = init_params(DIMS, 8)
        zero_graph = np.zeros((1, DIMS.l_seq, DIMS.n, DIMS.n, DIMS.d))
        a = forward_trace_batch(rng.standard_normal((1, DIMS.l_seq, DIMS.n)),
                                zero_graph, params)
        b = forward_trace_batch(rng.standard_normal((1, DIMS.l_seq, DIMS.n)),
                                zero_graph, params)
        np.testing.assert_array_equal(a.h_last, b.h_last)

    def test_gate_bounds(self):
        rng = np.random.default_rng(9)
        params = init_params(DIMS, 9)
        means = rng.standard_normal((1, DIMS.l_seq, DIMS.n)) * 10
        layers = rng.standard_normal((1, DIMS.l_seq, DIMS.n, DIMS.n, DIMS.d))
        trace = forward_trace_batch(means, layers, params)
        for h in trace.h_prev[1:] + [trace.h_last]:
            assert np.abs(h).max() < 1.0


class TestForward:
    def test_zero_params_give_half(self):
        rng = np.random.default_rng(10)
        assert prob_of(make_sample(rng), zero_params(10)) == 0.5

    def test_readout_saturation(self):
        rng = np.random.default_rng(11)
        params = init_params(DIMS, 11)
        params.readout_b[...] = 50.0
        assert prob_of(make_sample(rng), params) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        params = init_params(DIMS, 12)
        sample = make_sample(rng)
        assert prob_of(sample, params) == prob_of(sample, params)

    def test_probability_range(self):
        rng = np.random.default_rng(13)
        params = init_params(DIMS, 13)
        p = prob_of(make_sample(rng), params)
        assert 0.0 < p < 1.0

    def test_dims_mismatch(self):
        rng = np.random.default_rng(14)
        params = init_params(ModelDims(n=5, f=8, h=8, d=5, l_seq=3), 14)
        with pytest.raises(DataError):
            predict_proba(params, [make_sample(rng)])

    def test_node_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        params = init_params(DIMS, 15)
        sample = make_sample(rng)
        perm = rng.permutation(DIMS.n)
        permuted = SequenceSample(
            windows=[TimeSeriesWindow(data=w.data[:, perm], dt=w.dt,
                                      t_start=w.t_start) for w in sample.windows],
            tensors=[AdjacencyTensor(layers=t.layers[perm][:, perm, :], n=t.n,
                                     source_window=t.source_window)
                     for t in sample.tensors],
            label=sample.label, scenario_id="s0", t_end=0,
        )
        assert prob_of(permuted, params) == pytest.approx(
            prob_of(sample, params), abs=1e-12)


def reference_plain_lstm(means, params):
    """Independent per-channel LSTM with the same weights, no graph anywhere.

    Written directly from the standard gate equations as a check that the
    identity-graph ablation reduces the cell to an ordinary LSTM.
    """
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    b, l, n = means.shape
    probs = np.empty(b)
    for bi in range(b):
        h = np.zeros((n, params.dims.h))
        c = np.zeros((n, params.dims.h))
        for t in range(l):
            pooled = params.conv_scale * means[bi, t] + params.conv_shift
            x = np.outer(pooled, params.proj_w) + params.proj_b
            z = [x @ params.w_x[k] + h @ params.w_h[k] + params.b[k] for k in range(4)]
            i, f, o = sigmoid(z[0]), sigmoid(z[1]), sigmoid(z[2])
            g = np.tanh(z[3])
            c = f * c + i * g
            h = o * np.tanh(c)
        probs[bi] = sigmoid((h @ params.readout_w).mean() + params.readout_b)
    return probs


class TestIdentityGraphReduction:
    def test_matches_reference_lstm(self):
        rng = np.random.default_rng(16)
        params = init_params(DIMS, 16)
        means = rng.standard_normal((6, DIMS.l_seq, DIMS.n))
        got = forward_trace_batch(means, None, params, identity_graph=True).p
        want = reference_plain_lstm(means, params)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_identity_tensor_equals_identity_flag(self):
        rng = np.random.default_rng(17)
        params = init_params(DIMS, 17)
        params.alpha[:] = 0.0
        params.alpha[0] = 1.0
        means = rng.standard_normal((3, DIMS.l_seq, DIMS.n))
        eye_layers = np.zeros((3, DIMS.l_seq, DIMS.n, DIMS.n, DIMS.d))
        eye_layers[..., 0] = np.eye(DIMS.n)
        via_tensor = forward_trace_batch(means, eye_layers, params).p
        via_flag = forward_trace_batch(means, None, params, identity_graph=True).p
        np.testing.assert_allclose(via_tensor, via_flag, atol=1e-12)


def reference_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def reference_forward_trace(means, layers, params, identity_graph):
    """Frozen forward of the per-gate form: three separate ``exp(-|x|)``
    sigmoids, out-of-place pre-activations and ``c = f*c + i*g``.

    Returns every `ForwardTrace` field plus the per-step graph-convolved
    inputs ``xt`` and ``ht``, which the live trace does not keep. It pins the
    forward's arithmetic, and the backward's reference reads its per-step
    inputs from it."""
    means = np.asarray(means, dtype=np.float64)
    b, l, n = means.shape
    pooled = params.conv_scale * means + params.conv_shift
    xhat = pooled[..., None] * params.proj_w + params.proj_b
    geff = None if identity_graph else np.asarray(layers) @ params.alpha
    h = np.zeros((b, n, params.dims.h))
    c = np.zeros((b, n, params.dims.h))
    steps = {k: [] for k in ("xt", "ht", "h_prev", "c_prev", "gates", "tanh_c")}
    for t in range(l):
        xh = np.ascontiguousarray(xhat[:, t])
        xt, ht = (xh, h) if identity_graph else (geff[:, t] @ xh, geff[:, t] @ h)
        z = xt[:, None] @ params.w_x + ht[:, None] @ params.w_h + params.b[:, None]
        i, f, o = (reference_sigmoid(z[:, k]) for k in range(3))
        g = np.tanh(z[:, 3])
        for key, value in (("xt", xt), ("ht", ht), ("h_prev", h), ("c_prev", c)):
            steps[key].append(value)
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        steps["gates"].append({"i": i, "f": f, "o": o, "g": g})
        steps["tanh_c"].append(tc)
    score = (h @ params.readout_w).mean(axis=1) + params.readout_b
    return types.SimpleNamespace(
        means=means, layers=None if identity_graph else layers, pooled=pooled,
        xhat=xhat, geff=geff, h_last=h, score=score, p=reference_sigmoid(score),
        **steps)


def assert_same_bits(got, want, where):
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same_bits(got[key], want[key], f"{where}[{key}]")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same_bits(g, w, f"{where}[{k}]")
    elif want is None:
        assert got is None, where
    else:
        assert got.shape == want.shape and got.dtype == want.dtype, where
        assert got.tobytes() == want.tobytes(), where


class TestForwardBits:
    @pytest.mark.parametrize("n,f,h,l_seq", [(5, 12, 7, 4), (20, 64, 32, 5)])
    @pytest.mark.parametrize("batch", [1, 7, 32])
    @pytest.mark.parametrize("identity_graph", [False, True])
    def test_every_trace_field_matches_per_gate_reference(self, n, f, h, l_seq, batch,
                                                           identity_graph):
        dims = ModelDims(n=n, f=f, h=h, d=5, l_seq=l_seq)
        params = init_params(dims, n + batch)
        rng = np.random.default_rng(100 + batch)
        means = 3.0 * rng.standard_normal((batch, l_seq, n))
        layers = rng.standard_normal((batch, l_seq, n, n, 5))
        got = forward_trace_batch(means, None if identity_graph else layers, params,
                                  identity_graph=identity_graph)
        want = reference_forward_trace(means, layers, params, identity_graph)
        for field in dataclasses.fields(ForwardTrace):
            assert_same_bits(getattr(got, field.name), getattr(want, field.name),
                             field.name)


class TestSigmoid:
    SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 36.8, -36.8, 709.0, -709.0,
               746.0, -746.0, 1e308, -1e308]

    def test_special_values_bit_for_bit(self):
        x = np.array(self.SPECIAL)
        before = x.tobytes()
        got = _sigmoid(x)
        assert got.tobytes() == reference_sigmoid(x).tobytes()
        assert x.tobytes() == before

    def test_fused_gate_view_leaves_its_input_alone(self):
        # The step reads z[:, 3] after the gates, so the strided i/f/o view
        # must come back unchanged, and each gate must get its own bits.
        rng = np.random.default_rng(40)
        z = 40.0 * rng.standard_normal((7, 4, 5, 6))
        z.reshape(-1)[:len(self.SPECIAL)] = self.SPECIAL
        before = z.tobytes()
        got = _sigmoid(z[:, :3])
        assert z.tobytes() == before
        assert got.tobytes() == reference_sigmoid(z[:, :3]).tobytes()
        for k in range(3):
            assert got[:, k].tobytes() == reference_sigmoid(z[:, k]).tobytes()

    @pytest.mark.parametrize("value", SPECIAL)
    def test_zero_d_input(self, value):
        x = np.array(value)
        got = _sigmoid(x)
        assert np.shape(got) == ()
        assert np.asarray(got).tobytes() == np.asarray(reference_sigmoid(x)).tobytes()
        assert x.tobytes() == np.array(value).tobytes()


class TestInitParams:
    def test_seed_reproducible(self):
        a, b = init_params(DIMS, 5), init_params(DIMS, 5)
        for name in PARAM_ORDER:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a, b = init_params(DIMS, 5), init_params(DIMS, 6)
        assert any(not np.array_equal(getattr(a, name), getattr(b, name))
                   for name in PARAM_ORDER)

    def test_fan_in_bound(self):
        dims = ModelDims(n=4, f=64, h=64, d=5, l_seq=2)
        params = init_params(dims, 7)
        assert params.w_x.shape == (4, 64, 64) and params.w_h.shape == (4, 64, 64)
        for w in (params.w_x, params.w_h):
            assert np.abs(w).max() <= 1.0 / 8.0

    def test_special_values(self):
        params = init_params(DIMS, 8)
        assert params.conv_scale == 1.0
        # the forget gate (index 1 in i, f, o, g) starts at 1, the others at 0
        np.testing.assert_array_equal(params.b, [[0.0] * DIMS.h, [1.0] * DIMS.h,
                                                 [0.0] * DIMS.h, [0.0] * DIMS.h])
        np.testing.assert_allclose(params.alpha, 1.0 / DIMS.d)

    @pytest.mark.parametrize("f,h", [(8, 8), (12, 5)])
    def test_draw_order_matches_per_gate_reference(self, f, h):
        """Gate by gate, input weight then hidden weight: one (4, F, H) draw
        would give other numbers and change every trained model."""
        dims = ModelDims(n=3, f=f, h=h, d=5, l_seq=2)
        rng = np.random.default_rng(np.random.SeedSequence([31, 0x0D0A]))

        def u(fan_in, *shape):
            return rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=shape)

        proj_w, proj_b = u(1, f), 0.5 * u(1, f)
        per_gate = [(u(f, f, h), u(h, h, h)) for _ in "ifog"]
        readout_w = u(h, h)
        params = init_params(dims, 31)
        for k, (wx, wh) in enumerate(per_gate):
            assert params.w_x[k].tobytes() == wx.tobytes()
            assert params.w_h[k].tobytes() == wh.tobytes()
        assert params.proj_w.tobytes() == proj_w.tobytes()
        assert params.proj_b.tobytes() == proj_b.tobytes()
        assert params.readout_w.tobytes() == readout_w.tobytes()


def standardizer_of(seed, n=DIMS.n):
    rng = np.random.default_rng(seed)
    return Standardizer(mean=rng.standard_normal(n), std=rng.random(n) + 0.1)


def assert_standardizer_bit_equal(back, std):
    assert back.mean.tobytes() == std.mean.tobytes()
    assert back.std.tobytes() == std.std.tobytes()
    x = np.random.default_rng(0).standard_normal((10, std.mean.size))
    assert back.transform(x).tobytes() == std.transform(x).tobytes()


def assert_round_trip(params, path, seed):
    """Save and load: every array and the standardizer come back bit-equal,
    and the header names kind, dims, seed and the sorted test split."""
    std = standardizer_of(seed)
    save_checkpoint(params, std, path, seed=seed, test_ids={"s2", "s10", "s1"},
                    meta={"config_hash": "abc"})
    back, back_std, header = load_checkpoint(path)
    assert type(back) is type(params)
    assert header["version"] == 3
    assert header["kind"] == params.KIND
    assert header["dims"] == {"n": 4, "f": 8, "h": 8, "d": 5, "l_seq": 3}
    assert header["seed"] == seed
    assert header["test_ids"] == ["s1", "s10", "s2"]
    assert header["meta"]["config_hash"] == "abc"
    assert back.dims == params.dims
    assert list(back.tree()) == list(params.ORDER)
    for name, want in params.tree().items():
        assert getattr(back, name).tobytes() == want.tobytes()
    assert_standardizer_bit_equal(back_std, std)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(DIMS, 21)
        assert list(params.tree()) == list(PARAM_ORDER) and len(PARAM_ORDER) == 10
        assert_round_trip(params, tmp_path / "model.ckpt", 21)

    def test_gcn_round_trip(self, tmp_path):
        params = init_gcn_params(DIMS, 22)
        assert list(params.tree()) == list(GCN_PARAM_ORDER)
        assert_round_trip(params, tmp_path / "gcn.ckpt", 22)

    def test_save_is_deterministic(self, tmp_path):
        params, std = init_params(DIMS, 23), standardizer_of(23)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, std, p1, seed=23)
        save_checkpoint(params, std, p2, seed=23)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mismatched_standardizer_is_not_written(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with pytest.raises(DataError):
            save_checkpoint(init_params(DIMS, 24), standardizer_of(24, n=1), path)
        assert not path.exists()

    def test_corruption_detected(self, tmp_path):
        params = init_params(DIMS, 24)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, standardizer_of(24), path, seed=24)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            load_checkpoint(path)


def gcn_prob_of(sample, params):
    means, layers, _ = stack_inputs([sample])
    return float(gcn_forward_trace_batch(means, layers, params)["p"][0])


class TestGcnBaseline:
    def test_forward_range_and_determinism(self):
        rng = np.random.default_rng(25)
        params = init_gcn_params(DIMS, 25)
        sample = make_sample(rng)
        p = gcn_prob_of(sample, params)
        assert 0.0 < p < 1.0
        assert gcn_prob_of(sample, params) == p

    def test_uses_only_last_window(self):
        rng = np.random.default_rng(26)
        params = init_gcn_params(DIMS, 26)
        sample = make_sample(rng)
        altered = SequenceSample(
            windows=[make_sample(rng).windows[0]] + sample.windows[1:],
            tensors=[make_sample(rng).tensors[0]] + sample.tensors[1:],
            label=1, scenario_id="s0", t_end=0,
        )
        assert gcn_prob_of(altered, params) == gcn_prob_of(sample, params)


class TestCompressMeans:
    def test_batch_shapes(self):
        params = init_params(DIMS, 27)
        rng = np.random.default_rng(27)
        means = rng.standard_normal((2, 3, DIMS.n))
        out = compress_means(means, params)
        assert out.shape == (2, 3, DIMS.n, DIMS.f)
        single = compress_means(means[0, 0], params)
        np.testing.assert_array_equal(out[0, 0], single)
