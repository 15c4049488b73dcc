import tracemalloc

import numpy as np
import pytest

from dramn.adjacency import AdjacencyTensor, SequenceSample
from dramn.dmd import TimeSeriesWindow
from dramn.errors import ConfigError, DataError
from dramn.model import (
    ModelDims,
    forward_trace_batch,
    gcn_forward_trace_batch,
    init_gcn_params,
    init_params,
)
from dramn.training import (
    PREDICT_CHUNK,
    VARIANTS,
    AdamWState,
    Standardizer,
    TrainConfig,
    adamw_step,
    backward_batch,
    gcn_backward_batch,
    mae_batch,
    split_dataset,
    stack_inputs,
    train,
)
from test_model import reference_forward_trace

TINY = ModelDims(n=4, f=8, h=8, d=5, l_seq=2)
T = 20  # samples per raw window


def tiny_inputs(rng, dims=TINY, batch=1):
    means = rng.standard_normal((batch, dims.l_seq, dims.n))
    layers = rng.standard_normal((batch, dims.l_seq, dims.n, dims.n, dims.d))
    layers = 0.5 * (layers + layers.transpose(0, 1, 3, 2, 4))
    y = (rng.uniform(size=batch) > 0.5).astype(float)
    return means, layers, y


def fd_check(params, loss_fn, grads, step=1e-6, floor=1e-6):
    """Central finite differences against analytic gradients.

    Relative error uses a denominator floor: gradients smaller than the
    floor cannot be resolved to full relative precision by differences of
    an O(1) loss at this step size.
    """
    worst = 0.0
    for name, arr in params.tree().items():
        it = np.ndindex(arr.shape) if arr.shape else [()]
        for idx in it:
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss_fn()
            arr[idx] = orig - step
            down = loss_fn()
            arr[idx] = orig
            fd = (up - down) / (2.0 * step)
            ga = grads[name][idx]
            worst = max(worst, abs(ga - fd) / max(abs(ga), abs(fd), floor))
    return worst


def reference_backward_batch(means, layers, params, y, identity_graph=False):
    """backward_batch written out gate by gate: one einsum per weight gradient,
    gate k reading ``w_x[k]``, ``w_h[k]`` and ``b[k]``.

    Same arithmetic in the same order as the fused, threaded version, so the
    two must agree to the last bit. Every per-step input, xt and ht
    included, comes from the frozen per-gate forward, not from the code
    under test.
    """
    trace = reference_forward_trace(means, layers, params, identity_graph)
    b, l, n = trace.means.shape
    grads = {k: np.zeros_like(v) for k, v in params.tree().items()}
    dp = np.sign(trace.p - y) / b
    ds = dp * trace.p * (1.0 - trace.p)
    grads["readout_b"][...] = ds.sum()
    grads["readout_w"][...] = np.einsum("b,bh->h", ds, trace.h_last.mean(axis=1))
    dh = ds[:, None, None] * params.readout_w / n
    dc_carry = np.zeros((b, n, params.dims.h))
    dxhat = np.zeros_like(trace.xhat)
    dgeff = None if identity_graph else np.zeros_like(trace.geff)
    for t in range(l - 1, -1, -1):
        i, f, o, g = (trace.gates[t][k] for k in "ifog")
        tc = trace.tanh_c[t]
        do = dh * tc
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        dpre = (dc * g * i * (1.0 - i),
                dc * trace.c_prev[t] * f * (1.0 - f),
                do * o * (1.0 - o),
                dc * i * (1.0 - g * g))
        dc_carry = dc * f
        xt, ht = trace.xt[t], trace.ht[t]
        dxt = np.zeros_like(xt)
        dht = np.zeros_like(ht)
        for k, d in enumerate(dpre):
            grads["w_x"][k] += np.einsum("bnf,bnh->fh", xt, d)
            grads["w_h"][k] += np.einsum("bnh,bnk->hk", ht, d)
            grads["b"][k] += d.sum(axis=(0, 1))
            dxt += d @ params.w_x[k].T
            dht += d @ params.w_h[k].T
        if identity_graph:
            dxhat[:, t] = dxt
            dh = dht
        else:
            dgeff[:, t] = (np.einsum("bnf,bmf->bnm", dxt, trace.xhat[:, t])
                           + np.einsum("bnh,bmh->bnm", dht, trace.h_prev[t]))
            gt_t = np.swapaxes(trace.geff[:, t], 1, 2)
            dxhat[:, t] = gt_t @ dxt
            dh = gt_t @ dht
    if not identity_graph:
        grads["alpha"][...] = np.einsum("blnm,blnmd->d", dgeff, trace.layers)
    dpooled = dxhat @ params.proj_w
    grads["proj_w"][...] = np.einsum("blnf,bln->f", dxhat, trace.pooled)
    grads["proj_b"][...] = dxhat.sum(axis=(0, 1, 2))
    grads["conv_scale"][...] = (dpooled * trace.means).sum()
    grads["conv_shift"][...] = dpooled.sum()
    return np.abs(trace.p - y), grads


class TestMaeLoss:
    def test_exact_match(self):
        assert mae_batch([0.7], [0.7]) == 0.0

    def test_half(self):
        assert mae_batch([0.5], [1]) == 0.5

    def test_batch_mean(self):
        assert mae_batch([0.2, 0.9], [0, 1]) == pytest.approx(0.15)


class TestBackward:
    def test_gradient_check_five_seeds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = init_params(TINY, seed + 100)
            means, layers, y = tiny_inputs(rng)
            _, grads = backward_batch(means, layers, params, y)

            def loss():
                return float(np.abs(
                    forward_trace_batch(means, layers, params).p - y).mean())

            assert fd_check(params, loss, grads) <= 1e-4

    def test_alpha_gradient_nonzero(self):
        rng = np.random.default_rng(50)
        params = init_params(TINY, 50)
        means, layers, y = tiny_inputs(rng)
        _, grads = backward_batch(means, layers, params, y)
        assert np.abs(grads["alpha"]).max() > 0.0

    def test_readout_gradient_at_zero_params(self):
        rng = np.random.default_rng(51)
        params = init_params(TINY, 51)
        for name, arr in params.tree().items():
            arr[...] = 0.0
        means, layers, y = tiny_inputs(rng)
        y[:] = 1.0
        _, grads = backward_batch(means, layers, params, y)
        # p = 0.5, y = 1: dloss/dp = -1, readout-bias gradient = -sigma'(0)
        assert grads["readout_b"] == pytest.approx(-0.25)

    def test_alpha_gradient_zero_when_everything_zero(self):
        rng = np.random.default_rng(52)
        params = init_params(TINY, 52)
        params.conv_scale[...] = 0.0
        params.conv_shift[...] = 0.0
        params.proj_w[:] = 0.0
        params.proj_b[:] = 0.0
        means, layers, y = tiny_inputs(rng)
        _, grads = backward_batch(means, layers, params, y)
        np.testing.assert_array_equal(grads["alpha"], 0.0)

    def test_identity_graph_gradients(self):
        for seed in (7, 8):
            rng = np.random.default_rng(seed)
            params = init_params(TINY, seed)
            means, _, y = tiny_inputs(rng)
            _, grads = backward_batch(means, None, params, y, identity_graph=True)

            def loss():
                return float(np.abs(forward_trace_batch(
                    means, None, params, identity_graph=True).p - y).mean())

            assert fd_check(params, loss, grads) <= 1e-4
            np.testing.assert_array_equal(grads["alpha"], 0.0)

    def test_gcn_gradients(self):
        for seed in (9, 10):
            rng = np.random.default_rng(seed)
            params = init_gcn_params(TINY, seed)
            means, layers, y = tiny_inputs(rng)
            _, grads = gcn_backward_batch(means, layers, params, y)

            def loss():
                return float(np.abs(
                    gcn_forward_trace_batch(means, layers, params)["p"] - y).mean())

            assert fd_check(params, loss, grads) <= 1e-4

    def test_single_sample_batch(self):
        rng = np.random.default_rng(53)
        params = init_params(TINY, 53)
        windows = [TimeSeriesWindow(data=rng.standard_normal((T, TINY.n)),
                                    dt=0.001) for _ in range(TINY.l_seq)]
        raw = rng.standard_normal((TINY.n, TINY.n, TINY.d))
        tensors = [AdjacencyTensor(layers=0.5 * (raw + raw.transpose(1, 0, 2)),
                                   n=TINY.n, source_window=0)
                   for _ in range(TINY.l_seq)]
        sample = SequenceSample(windows=windows, tensors=tensors, label=1,
                                scenario_id="s", t_end=0)
        means, layers, y = stack_inputs([sample])
        losses, grads = backward_batch(means, layers, params, y)
        assert losses.shape == (1,)
        assert 0.0 <= losses[0] <= 1.0
        assert set(grads) == set(params.tree())

    @pytest.mark.parametrize("n,batch,l_seq,f,h", [
        pytest.param(4, 7, 3, 64, 64, id="4-7-3"),
        pytest.param(20, 32, 5, 64, 64, id="20-32-5"),
        pytest.param(3, 1, 1, 64, 64, id="3-1-1"),
        pytest.param(20, 32, 5, 64, 32, id="20-32-5-f64-h32"),
    ])
    @pytest.mark.parametrize("identity_graph", [False, True])
    def test_matches_per_gate_reference_bit_for_bit(self, n, batch, l_seq, f, h,
                                                     identity_graph):
        dims = ModelDims(n=n, f=f, h=h, d=5, l_seq=l_seq)
        params = init_params(dims, n + batch)
        means, layers, y = tiny_inputs(np.random.default_rng(n * batch), dims,
                                       batch=batch)
        if identity_graph:
            layers = None
        got_losses, got = backward_batch(means, layers, params, y,
                                         identity_graph=identity_graph)
        want_losses, want = reference_backward_batch(means, layers, params, y,
                                                     identity_graph)
        assert got_losses.tobytes() == want_losses.tobytes()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("identity_graph", [False, True])
    def test_peak_memory_at_paper_dims(self, identity_graph):
        # The trace keeps no graph-convolved step inputs and the reverse
        # recursion frees each step's state once it has used it; storing
        # both and freeing nothing peaks at about 87 (B, n, H) arrays.
        dims = ModelDims(n=20, f=64, h=64, d=5, l_seq=5)
        batch = 32
        params = init_params(dims, 97)
        means, layers, y = tiny_inputs(np.random.default_rng(97), dims, batch=batch)
        if identity_graph:
            layers = None
        backward_batch(means, layers, params, y, identity_graph=identity_graph)
        tracemalloc.start()
        try:
            backward_batch(means, layers, params, y, identity_graph=identity_graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = np.zeros((batch, dims.n, dims.h)).nbytes
        assert peak <= 72 * state


class TestAdamW:
    def test_zero_gradient_no_decay_keeps_params(self):
        params = init_params(TINY, 60)
        before = {k: v.copy() for k, v in params.tree().items()}
        state = AdamWState.init(params)
        cfg = TrainConfig(weight_decay=0.0, seed=0)
        adamw_step(params, {k: np.zeros_like(v) for k, v in before.items()},
                   state, cfg)
        for name, arr in params.tree().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_constant_gradient_step_magnitude(self):
        # with a constant gradient the bias-corrected update approaches
        # lr * sign(g) regardless of |g|
        params = init_params(TINY, 61)
        state = AdamWState.init(params)
        cfg = TrainConfig(weight_decay=0.0, lr=1e-3, seed=0)
        grads = {k: np.full_like(v, 0.37) for k, v in params.tree().items()}
        snapshots = [params.proj_w.copy()]
        for _ in range(200):
            adamw_step(params, grads, state, cfg)
            snapshots.append(params.proj_w.copy())
        last_step = np.abs(snapshots[-1] - snapshots[-2])
        np.testing.assert_allclose(last_step, cfg.lr, rtol=1e-4)

    def test_decoupled_decay_shrinks(self):
        params = init_params(TINY, 62)
        state = AdamWState.init(params)
        cfg = TrainConfig(weight_decay=0.01, lr=1e-3, seed=0)
        zero = {k: np.zeros_like(v) for k, v in params.tree().items()}
        want = params.proj_w.copy() * (1.0 - cfg.lr * cfg.weight_decay) ** 3
        for _ in range(3):
            adamw_step(params, zero, state, cfg)
        np.testing.assert_allclose(params.proj_w, want, rtol=1e-12)


def dataset_of(n_scenarios, rng, dims=TINY, per_scenario=3):
    samples = []
    for s in range(n_scenarios):
        label = int(rng.uniform() > 0.5)
        for k in range(per_scenario):
            data = rng.standard_normal((T, dims.n)) * 0.2
            data[:, 0] += 2.0 * label - 1.0
            windows = [TimeSeriesWindow(data=data, dt=0.001, t_start=j * 100)
                       for j in range(dims.l_seq)]
            raw = rng.standard_normal((dims.n, dims.n, dims.d)) * 0.3
            tensors = [AdjacencyTensor(layers=0.5 * (raw + raw.transpose(1, 0, 2)),
                                       n=dims.n, source_window=j * 100)
                       for j in range(dims.l_seq)]
            samples.append(SequenceSample(windows=windows, tensors=tensors,
                                          label=label, scenario_id=f"sc{s}",
                                          t_end=k))
    return samples


class TestSplit:
    def test_proportions_100_scenarios(self):
        rng = np.random.default_rng(70)
        data = dataset_of(100, rng, per_scenario=1)
        cfg = TrainConfig(seed=3)
        train_s, val_s, test_s = split_dataset(data, cfg)
        assert len(test_s) == 20
        assert len(val_s) == 8
        assert len(train_s) == 72

    def test_scenario_level_grouping(self):
        rng = np.random.default_rng(71)
        data = dataset_of(20, rng, per_scenario=4)
        train_s, val_s, test_s = split_dataset(data, TrainConfig(seed=1))
        groups = [{s.scenario_id for s in part} for part in (train_s, val_s, test_s)]
        assert not (groups[0] & groups[1] or groups[0] & groups[2]
                    or groups[1] & groups[2])

    def test_deterministic(self):
        rng = np.random.default_rng(72)
        data = dataset_of(30, rng)
        a = split_dataset(data, TrainConfig(seed=9))
        b = split_dataset(data, TrainConfig(seed=9))
        for pa, pb in zip(a, b):
            assert [s.scenario_id for s in pa] == [s.scenario_id for s in pb]

    def test_too_small(self):
        rng = np.random.default_rng(73)
        with pytest.raises(DataError):
            split_dataset(dataset_of(1, rng), TrainConfig(seed=0))


def fit_on(windows):
    """The standardizer fitted on ``windows``, as one sample."""
    return Standardizer.fit([SequenceSample(windows=windows, tensors=[], label=0)])


class TestStandardizer:
    def test_constant_channel_floored(self):
        windows = [TimeSeriesWindow(data=np.full((10, 2), 3.0), dt=0.001)]
        std = fit_on(windows)
        out = std.transform(np.full((5, 2), 3.0))
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out, 0.0)

    def test_train_only_statistics(self):
        rng = np.random.default_rng(81)
        train_w = [TimeSeriesWindow(data=rng.standard_normal((20, 2)), dt=0.001)
                   for _ in range(3)]
        std_a = fit_on(train_w)
        # wildly different "test" data must not influence the fit
        std_b = fit_on(train_w)
        np.testing.assert_array_equal(std_a.mean, std_b.mean)
        np.testing.assert_array_equal(std_a.std, std_b.std)

    def test_round_trip_dict(self):
        rng = np.random.default_rng(80)
        windows = [TimeSeriesWindow(data=rng.standard_normal((30, 3)) * [1, 5, 0.1]
                                    + [1.0, 60.0, 0.0], dt=0.001)
                   for _ in range(4)]
        std = fit_on(windows)
        z = std.transform(np.concatenate([w.data for w in windows]))
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, rtol=1e-9)

    def test_samples_pool_in_order_with_dropped_windows(self):
        # two samples, uneven window lengths; the second has dropped its
        # windows after taking its sums of squares
        rng = np.random.default_rng(82)
        first = [TimeSeriesWindow(data=rng.standard_normal((n, 3)) + 60.0, dt=0.001)
                 for n in (7, 11)]
        second = [TimeSeriesWindow(data=rng.standard_normal((5, 3)) * 4.0, dt=0.001)]
        dropped = SequenceSample(windows=second, tensors=[], label=0)
        dropped.drop_windows(squares=True)
        std = Standardizer.fit([SequenceSample(windows=first, tensors=[], label=1),
                                dropped])
        total = total_sq = 0.0
        for w in first + second:
            total = total + w.data.sum(axis=0)
            total_sq = total_sq + (w.data * w.data).sum(axis=0)
        mean = total / 23
        assert std.mean.tobytes() == mean.tobytes()
        assert std.std.tobytes() == np.sqrt(
            np.maximum(total_sq / 23 - mean * mean, 0.0)).tobytes()

    def test_needs_sums_of_squares(self):
        sample = SequenceSample(
            windows=[TimeSeriesWindow(data=np.ones((4, 2)), dt=0.001)],
            tensors=[], label=0, scenario_id="s", t_end=9)
        sample.drop_windows()
        with pytest.raises(DataError, match="dropped its windows"):
            Standardizer.fit([sample])

    def test_zero_samples(self):
        with pytest.raises(DataError):
            Standardizer.fit([])


class TestTrainLoop:
    def test_separable_toy_learns(self):
        rng = np.random.default_rng(90)
        data = dataset_of(40, rng, per_scenario=2)
        cfg = TrainConfig(epochs=60, early_stop_patience=60, lr=0.01, seed=4,
                          val_fraction=0.15, test_fraction=0.2)
        result = train(data, cfg, embed_dim=8, hidden_dim=8)
        losses = [h.train_loss for h in result.history]
        assert all(losses[k + 1] < losses[k] for k in range(5))
        assert min(losses) < 0.25

    def test_patience_zero_stops_after_first_non_improvement(self):
        rng = np.random.default_rng(91)
        data = dataset_of(20, rng)
        cfg = TrainConfig(epochs=50, early_stop_patience=0, seed=5)
        result = train(data, cfg, embed_dim=8, hidden_dim=8)
        vals = [h.val_loss for h in result.history]
        # the run ends exactly one epoch after the last improvement
        best = int(np.argmin(vals))
        assert len(vals) == best + 2 or len(vals) == 50

    def test_returns_best_validation_params(self):
        rng = np.random.default_rng(92)
        data = dataset_of(24, rng)
        cfg = TrainConfig(epochs=10, early_stop_patience=10, seed=6)
        result = train(data, cfg, embed_dim=8, hidden_dim=8)
        m, g, y = stack_inputs(result.val_samples, result.standardizer)
        got = mae_batch(forward_trace_batch(m, g, result.params).p, y)
        assert got == pytest.approx(min(h.val_loss for h in result.history),
                                    abs=1e-12)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_val_loss_is_the_full_batch_mae(self, variant):
        # the validation split spans two scoring chunks
        rng = np.random.default_rng(92)
        data = dataset_of(30, rng, per_scenario=4)
        cfg = TrainConfig(epochs=4, early_stop_patience=4, seed=6, val_fraction=0.5)
        result = train(data, cfg, embed_dim=8, hidden_dim=8, variant=variant)
        assert len(result.val_samples) > PREDICT_CHUNK
        spec = VARIANTS[variant]
        m, g, y = stack_inputs(result.val_samples, result.standardizer,
                               last_only=spec.last_only)
        got = mae_batch(spec.predict(m, g, result.params), y)
        assert got == min(h.val_loss for h in result.history)

    def test_peak_memory_is_below_the_split_stack(self):
        # paper-sized samples (n=20, d=5, L=5), nine batches of 32
        dims = ModelDims(n=20, f=4, h=4, d=5, l_seq=5)
        data = dataset_of(100, np.random.default_rng(96), dims=dims, per_scenario=4)
        cfg = TrainConfig(epochs=1, seed=9)
        n_train = len(split_dataset(data, cfg)[0])
        assert n_train >= 8 * cfg.batch_size
        split_stack = n_train * dims.l_seq * dims.n * dims.n * dims.d * 8
        tracemalloc.start()
        try:
            train(data, cfg, embed_dim=dims.f, hidden_dim=dims.h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < split_stack

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(93)
        data = dataset_of(20, rng)
        cfg = TrainConfig(epochs=4, early_stop_patience=4, seed=7)
        a = train(data, cfg, embed_dim=8, hidden_dim=8)
        b = train(data, cfg, embed_dim=8, hidden_dim=8)
        for name, arr in a.params.tree().items():
            assert arr.tobytes() == getattr(b.params, name).tobytes()

    def test_loss_bounded(self):
        rng = np.random.default_rng(94)
        data = dataset_of(16, rng)
        result = train(data, TrainConfig(epochs=3, early_stop_patience=3, seed=8),
                       embed_dim=8, hidden_dim=8)
        for h in result.history:
            assert 0.0 <= h.train_loss <= 1.0
            assert 0.0 <= h.val_loss <= 1.0

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(val_fraction=0.0)
