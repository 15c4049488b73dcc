import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dramn.adjacency as adjacency
import dramn.dmd as dmd_module
from dramn.adjacency import (
    WINDOW_CHUNK,
    AdjacencyTensor,
    N_LAYERS,
    SequenceConfig,
    build_adjacency,
    build_tensors,
    energy_factor,
    layer_coupling,
    layer_energy,
    layer_growth,
    layer_participation,
    layer_phase,
    mean_centered,
    normalize_layers,
    tensor_from_bytes,
    tensor_to_bytes,
)
from dramn.datagen import (
    GenerationMix,
    ScenarioRecord,
    SurrogateConfig,
    WindowProtocol,
    synthesize_scenario,
    window_dataset,
)
from dramn.dmd import DmdConfig, TimeSeriesWindow, WindowStack, dmd
from dramn.errors import (
    DataError,
    DegenerateWindowError,
    InsufficientHistoryError,
    NumericalFailureError,
    ZeroMatrixError,
)


def brute_force_energy(rho, length):
    """Independent oracle: direct geometric sum of per-step energies.

    Accumulated in float64 so overflow saturates to inf exactly as the
    closed form does, instead of raising like Python's float pow.
    """
    total = np.float64(0.0)
    term = np.float64(1.0)
    factor = np.float64(rho) * np.float64(rho)
    with np.errstate(over="ignore"):
        for _ in range(length):
            total += term
            term *= factor
    return float(total)


def random_modes(rng, n, r):
    return rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))


class TestParticipation:
    def test_hand_example(self):
        phi = np.array([[1.0], [2.0]], dtype=complex)
        np.testing.assert_allclose(layer_participation(phi), [[1.0, 2.0], [2.0, 4.0]])

    def test_zero_modes(self):
        np.testing.assert_array_equal(layer_participation(np.zeros((3, 2))),
                                      np.zeros((3, 3)))

    def test_diagonal_is_squared_row_norm(self):
        rng = np.random.default_rng(0)
        phi = random_modes(rng, 4, 3)
        m = layer_participation(phi)
        np.testing.assert_allclose(np.diag(m),
                                   (np.abs(phi) ** 2).sum(axis=1), rtol=1e-12)

    def test_nonnegative_symmetric(self):
        rng = np.random.default_rng(1)
        m = layer_participation(random_modes(rng, 5, 4))
        assert (m >= 0).all()
        np.testing.assert_allclose(m, m.T, atol=1e-12)


class TestCoupling:
    def test_single_mode_collapses_to_zero(self):
        rng = np.random.default_rng(2)
        m = layer_coupling(random_modes(rng, 4, 1))
        np.testing.assert_allclose(m, np.zeros((4, 4)), atol=1e-12)

    def test_self_similarity(self):
        phi = np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]], dtype=complex)
        m = layer_coupling(phi)
        assert m[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_anti_aligned_profiles(self):
        phi = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        m = layer_coupling(phi)
        assert m[0, 1] == pytest.approx(-1.0, abs=1e-6)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        m = layer_coupling(random_modes(rng, 6, 5))
        assert np.abs(m).max() <= 1.0


class TestPhase:
    def test_positive_real_modes(self):
        phi = np.abs(np.random.default_rng(4).standard_normal((3, 4))) + 0j
        np.testing.assert_allclose(layer_phase(phi), np.ones((3, 3)), atol=1e-12)

    def test_antipodal_cancellation(self):
        phi = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex)
        m = layer_phase(phi)
        np.testing.assert_allclose(m[0], [0.0, 0.0], atol=1e-12)

    def test_orthogonal_phases(self):
        phi = np.array([[1.0, 1.0], [1j, 1j]])
        m = layer_phase(phi)
        assert m[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert m[0, 0] == pytest.approx(1.0)

    def test_kappa_bound(self):
        rng = np.random.default_rng(5)
        m = layer_phase(random_modes(rng, 6, 5))
        assert np.abs(m).max() <= 1.0 + 1e-12


class TestGrowth:
    def test_unit_circle_spectrum(self):
        rng = np.random.default_rng(6)
        phi = random_modes(rng, 4, 3)
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        lam /= np.abs(lam)
        m = layer_growth(phi, lam)
        np.testing.assert_allclose(m, np.zeros((4, 4)), atol=1e-9)

    def test_single_growing_mode(self):
        phi = np.array([[1.0], [1.0]], dtype=complex)
        m = layer_growth(phi, np.array([np.e]))
        np.testing.assert_allclose(m, np.ones((2, 2)), rtol=1e-12)

    def test_zero_eigenvalue_floored(self):
        phi = np.array([[1.0], [2.0]], dtype=complex)
        m = layer_growth(phi, np.array([0.0]))
        assert np.isfinite(m).all()

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        phi = random_modes(rng, 5, 4)
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = layer_growth(phi, lam)
        assert np.abs(m - m.T).max() <= 1e-9


class TestEnergyFactor:
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.999, 1.0, 1.001, 1.5])
    @pytest.mark.parametrize("length", [1, 10, 1000])
    def test_matches_brute_force(self, rho, length):
        want = brute_force_energy(rho, length)
        got = energy_factor(rho, length)
        if np.isinf(want):
            assert np.isinf(got)
        else:
            assert got == pytest.approx(want, rel=1e-9)

    def test_unit_modulus_is_length(self):
        assert energy_factor(1.0, 17) == 17.0

    def test_zero_modulus(self):
        assert energy_factor(0.0, 5) == 1.0

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            energy_factor(-0.1, 5)

    @given(rho=st.floats(min_value=0.0, max_value=1.4),
           length=st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_sum(self, rho, length):
        want = brute_force_energy(rho, length)
        assert energy_factor(rho, length) == pytest.approx(want, rel=1e-9)


class TestEnergyLayer:
    def test_unit_spectrum_uniform_weights(self):
        rng = np.random.default_rng(8)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :3].astype(complex)
        lam = np.exp(1j * np.array([0.3, 1.1, 2.0]))
        lam /= np.abs(lam)
        m = layer_energy(q, lam, 25)
        np.testing.assert_allclose(m, 25.0 * np.real(q @ q.conj().T), atol=1e-8)

    def test_single_mode_rank_one(self):
        rng = np.random.default_rng(9)
        phi = random_modes(rng, 4, 1)
        m = layer_energy(phi, np.array([0.8]), 50)
        want = energy_factor(0.8, 50) * np.real(phi @ phi.conj().T)
        np.testing.assert_allclose(m, want, rtol=1e-12)

    def test_persistent_mode_dominates(self):
        phi = np.eye(2, dtype=complex)
        m = layer_energy(phi, np.array([1.0, 0.1]), 100)
        assert m[0, 0] == pytest.approx(100.0)
        assert m[1, 1] == pytest.approx(brute_force_energy(0.1, 100), rel=1e-9)
        assert m[0, 0] > 50 * m[1, 1]

    def test_psd_for_contractive_spectrum(self):
        rng = np.random.default_rng(10)
        phi = random_modes(rng, 5, 4)
        lam = rng.uniform(0.2, 1.0, 4) * np.exp(1j * rng.uniform(0, np.pi, 4))
        m = layer_energy(phi, lam, 30)
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() >= -1e-9


class TestNormalize:
    def test_scaling(self):
        raw = np.zeros((2, 2, N_LAYERS))
        raw[:, :, 0] = [[4.0, 2.0], [2.0, 0.0]]
        t = normalize_layers(raw)
        assert np.abs(t.layers[:, :, 0]).max() == 1.0

    def test_zero_layer_untouched(self):
        t = normalize_layers(np.zeros((3, 3, N_LAYERS)))
        np.testing.assert_array_equal(t.layers, 0.0)

    def test_abs_max_convention(self):
        raw = np.zeros((2, 2, N_LAYERS))
        raw[:, :, 1] = [[-8.0, 2.0], [2.0, 1.0]]
        t = normalize_layers(raw)
        np.testing.assert_allclose(t.layers[:, :, 1], [[-1.0, 0.25], [0.25, 0.125]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layer", [0, N_LAYERS - 1])
    def test_non_finite_entry_raises(self, bad, layer):
        raw = np.random.default_rng(18).standard_normal((3, 3, N_LAYERS))
        raw[2, 1, layer] = bad
        with pytest.raises(NumericalFailureError, match="non-finite entries"):
            normalize_layers(raw)


def lti_window(rng, n=3, steps=200, radius=0.95, offset=None):
    n_pairs = n // 2
    a = np.zeros((n, n))
    pos = 0
    moduli = np.linspace(0.6, radius, n_pairs + n % 2)
    for j in range(n_pairs):
        r, th = moduli[j], rng.uniform(0.3, 2.0)
        a[pos:pos + 2, pos:pos + 2] = r * np.array(
            [[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        pos += 2
    if n % 2:
        a[pos, pos] = moduli[-1]
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = q @ a @ q.T
    data = np.empty((steps, n))
    data[0] = rng.standard_normal(n)
    for k in range(1, steps):
        data[k] = a @ data[k - 1]
    if offset is not None:
        data = data + offset
    return TimeSeriesWindow(data=data, dt=0.001)


class TestBuildAdjacency:
    def test_shape_and_symmetry(self):
        rng = np.random.default_rng(11)
        t = build_adjacency(lti_window(rng), DmdConfig())
        assert t.layers.shape == (3, 3, N_LAYERS)
        t.validate()

    def test_static_window_zero_growth_layer(self):
        w = TimeSeriesWindow(data=np.full((60, 3), 1.5), dt=0.001)
        t = build_adjacency(w, DmdConfig())
        np.testing.assert_allclose(t.layers[:, :, 3], 0.0, atol=1e-9)

    def test_block_diagonal_generator_separates(self):
        rng = np.random.default_rng(12)
        w1 = lti_window(rng, n=2, radius=0.9)
        w2 = lti_window(rng, n=2, radius=0.85)
        data = np.hstack([w1.data, w2.data])
        t = build_adjacency(TimeSeriesWindow(data=data, dt=0.001), DmdConfig(rank=4))
        part = t.layers[:, :, 0]
        within = min(part[0, 1], part[2, 3])
        cross = max(part[0, 2], part[0, 3], part[1, 2], part[1, 3])
        assert cross < 0.05 * within


def reference_normalize(raw):
    """Reference for `normalize_layers`: one layer at a time."""
    out = np.asarray(raw, dtype=np.float64).copy()
    for l in range(out.shape[2]):
        peak = np.abs(out[:, :, l]).max()
        if peak > 0.0:
            out[:, :, l] /= peak
    return out


def lone_dmd(window, cfg):
    """One window's decomposition as (modes, eigenvalues, r_eff)."""
    [result] = dmd(WindowStack.of(window), cfg)
    return result.modes[0], result.eigenvalues[0], result.r_eff


def reference_build(window, cfg):
    """Reference for `build_adjacency`: `np.stack` of the five layers."""
    phi, lam, _ = lone_dmd(window, cfg)
    raw = np.stack(
        [
            layer_participation(phi),
            layer_coupling(phi),
            layer_phase(phi),
            layer_growth(phi, lam),
            layer_energy(phi, lam, window.n_samples),
        ],
        axis=-1,
    )
    return reference_normalize(raw)


class TestBuildAdjacencyBits:
    """The one-array layer assembly keeps the bits and the C layout of
    `np.stack` + per-layer normalization. The layout matters: the model's
    `layers @ alpha` rounds differently on a transposed view of equal
    values."""

    def _windows(self):
        rng = np.random.default_rng(31)
        out = [mean_centered(lti_window(rng, n=n, steps=300, offset=1.0))
               for n in (2, 3, 6, 20) for _ in range(3)]
        out.append(TimeSeriesWindow(data=np.full((60, 3), 1.5), dt=0.001))
        return out

    def test_matches_stack_and_per_layer_normalize(self):
        for w in self._windows():
            for cfg in (DmdConfig(), DmdConfig(rank=2)):
                t = build_adjacency(w, cfg)
                ref = reference_build(w, cfg)
                assert t.layers.flags.c_contiguous
                assert t.layers.shape == ref.shape and t.layers.strides == ref.strides
                assert t.layers.tobytes() == ref.tobytes()

    def test_normalize_matches_per_layer_loop(self):
        rng = np.random.default_rng(32)
        for n in (1, 3, 7):
            raw = rng.standard_normal((n, n, N_LAYERS)) * 10.0 ** rng.uniform(-5, 5, N_LAYERS)
            raw[:, :, 2] = 0.0
            t = normalize_layers(raw)
            assert t.layers.tobytes() == reference_normalize(raw).tobytes()
            assert t.layers.flags.c_contiguous


def frozen_build(window, cfg):
    """The build of one window as it stood before stacking, frozen here as
    the reference: centering as `mean_centered` did it, exact DMD of the
    window alone, the five layers and per-layer peak scaling. Returns the
    n x n x 5 layers and raises what that build raised."""
    data = window.data
    centered = data - data.mean(axis=0)
    if centered.any():
        data = TimeSeriesWindow(data=centered, dt=window.dt).data
    x = data.T
    x1, x2 = x[:, :-1], x[:, 1:]
    u, s, vt = np.linalg.svd(x1, full_matrices=False)
    if not s[0] > 0.0:
        raise ZeroMatrixError("all-zero snapshot matrix: no mode exists")
    keep = min(cfg.rank, int(np.count_nonzero(s > cfg.svd_rel_tol * s[0])))
    u_r, s_r, v_r = u[:, :keep], s[:keep], vt[:keep].T
    a = (u_r.T @ x2 @ v_r) / s_r
    lam, w = np.linalg.eig(a)
    scale = np.linalg.norm(a)
    worst = float(np.linalg.norm(a @ w - w * lam, axis=0).max())
    if worst > 1e-8 * max(scale, np.finfo(float).tiny):
        raise NumericalFailureError(
            f"eigen residual {worst:.3e} exceeds 1e-08 * ||A|| = {1e-8 * scale:.3e}")
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    w, lam = w[:, order], lam[order]
    phi = ((x2 @ v_r) / s_r) @ w
    if not (np.isfinite(phi).all() and np.isfinite(lam).all()):
        raise NumericalFailureError("decomposition produced non-finite modes or eigenvalues")
    mag = np.abs(phi)
    dev = mag - mag.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(dev, axis=1)
    ang = np.angle(phi)
    c, sn = np.cos(ang).mean(axis=1), np.sin(ang).mean(axis=1)
    g = np.log(np.maximum(np.abs(lam), 1e-12))
    g[np.abs(g) < 1e-12] = 0.0
    e = np.minimum([energy_factor(abs(l), data.shape[0]) for l in lam], 1e290)
    n = phi.shape[0]
    layers = np.empty((n, n, N_LAYERS))
    layers[:, :, 0] = mag @ mag.T
    layers[:, :, 1] = (dev @ dev.T) / np.outer(norms + 1e-8, norms + 1e-8)
    layers[:, :, 2] = np.outer(c, c) + np.outer(sn, sn)
    layers[:, :, 3] = np.real((phi * g) @ phi.conj().T)
    layers[:, :, 4] = np.real((phi * e) @ phi.conj().T)
    if not np.isfinite(layers).all():
        raise NumericalFailureError("layer stack contains non-finite entries")
    peak = np.abs(layers).max(axis=(0, 1))
    layers /= np.where(peak > 0.0, peak, 1.0)
    return layers


def real_modes_window(rng, n, steps=300):
    """min(n, 5) decaying modes with distinct real rates: a window whose
    eigenvalues come out all real, so `np.linalg.eig` types it real."""
    m = min(n, 5)
    z = rng.standard_normal(m) * np.linspace(0.97, 0.6, m) ** np.arange(steps)[:, None]
    return TimeSeriesWindow(data=z @ rng.standard_normal((m, n)) + 1.0, dt=0.001)


def rank_one_window(rng, n, steps=300):
    """One decaying oscillation on every channel: rank 1 after centering."""
    t = np.arange(steps)
    s = 0.97 ** t * np.cos(0.7 * t)
    return TimeSeriesWindow(data=np.outer(s, rng.standard_normal(n)) + 2.0, dt=0.001)


def _allow_cpus(monkeypatch, cpus):
    """Let `build_tensors` see ``cpus`` CPUs, whatever the host has, and
    use its helper on windows of any size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(adjacency, "HELPER_MIN_ENTRIES", 0)


def _thread_starts(monkeypatch):
    """A list that gets one entry per thread started from now on."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestStackedBuild:
    """Every tensor of a stacked build has, by `tobytes()`, the bits of
    `frozen_build` on its own window, whatever else shares its stack."""

    @pytest.mark.parametrize("mix, event, seed", [
        (GenerationMix(50, 25, 25), "short_circuit", 11),
        (GenerationMix(20, 40, 40), "load_increase", 12),
        (GenerationMix(34, 33, 33), "unperturbed", 13),
    ])
    def test_paper_scenario_windows(self, mix, event, seed):
        record = synthesize_scenario(mix, event, seed, SurrogateConfig())
        proto = WindowProtocol()
        out = window_dataset(record, proto, include_generalization=True)
        assert len(out.training) == 11
        assert len(out.generalization) == len(proto.generalization_end_times(record))
        for sample in out.training + out.generalization:
            for w, t in zip(sample.windows, sample.tensors):
                assert t.source_window == w.t_start and t.layers.flags.c_contiguous
                assert t.layers.tobytes() == frozen_build(w, proto.sequence.dmd).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 6, 20])
    @pytest.mark.parametrize("chunk", [1, 3, WINDOW_CHUNK])
    def test_mixed_stack(self, monkeypatch, n, chunk):
        rng = np.random.default_rng(40 + n)
        windows = [lti_window(rng, n=n, steps=300, offset=1.0) for _ in range(8)]
        static = TimeSeriesWindow(data=np.tile(np.arange(1.0, n + 1), (300, 1)), dt=0.001)
        windows[1:1] = [static]
        windows[4:4] = [rank_one_window(rng, n)]
        windows[6:6] = [real_modes_window(rng, n)]
        windows = [TimeSeriesWindow(data=w.data, dt=w.dt, t_start=10 * k)
                   for k, w in enumerate(windows)]
        cfg = DmdConfig()
        # the real window shares its retained count with oscillating ones
        assert lone_dmd(mean_centered(windows[6]), cfg)[1].dtype == np.float64
        assert lone_dmd(mean_centered(windows[0]), cfg)[2] == min(n, 5)
        assert lone_dmd(windows[1], cfg)[2] == lone_dmd(mean_centered(windows[4]), cfg)[2] == 1
        monkeypatch.setattr(adjacency, "WINDOW_CHUNK", chunk)
        tensors = build_tensors(windows, cfg)
        assert [t.source_window for t in tensors] == [w.t_start for w in windows]
        for w, t in zip(windows, tensors):
            want = frozen_build(w, cfg).tobytes()
            assert t.layers.flags.c_contiguous and t.layers.tobytes() == want
            assert build_adjacency(mean_centered(w), cfg).layers.tobytes() == want

    @pytest.mark.parametrize("count", [1, 2, 3, 2 * WINDOW_CHUNK + 1])
    @pytest.mark.parametrize("chunk", [1, WINDOW_CHUNK])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_helper_thread(self, monkeypatch, count, chunk, cpus):
        # the caller builds chunks 0, 2, 4, ... and the one helper thread
        # 1, 3, ...; with one chunk or one CPU no thread starts
        rng = np.random.default_rng(60 + count)
        windows = [TimeSeriesWindow(data=lti_window(rng, n=6, steps=300, offset=1.0).data,
                                    dt=0.001, t_start=10 * k) for k in range(count)]
        monkeypatch.setattr(adjacency, "WINDOW_CHUNK", chunk)
        _allow_cpus(monkeypatch, cpus)
        builders = {}
        real_chunk_tensors = adjacency._chunk_tensors

        def chunk_tensors(chunk_windows, cfg, buf):
            builders[chunk_windows[0].t_start // (10 * chunk)] = threading.get_ident()
            return real_chunk_tensors(chunk_windows, cfg, buf)

        monkeypatch.setattr(adjacency, "_chunk_tensors", chunk_tensors)
        threads = threading.active_count()
        started = _thread_starts(monkeypatch)
        cfg = DmdConfig()
        tensors = build_tensors(windows, cfg)
        assert threading.active_count() == threads
        assert [t.source_window for t in tensors] == [w.t_start for w in windows]
        for w, t in zip(windows, tensors):
            assert t.layers.flags.c_contiguous
            assert t.layers.tobytes() == frozen_build(w, cfg).tobytes()
        n_chunks = -(-count // chunk)
        assert sorted(builders) == list(range(n_chunks))
        helped = n_chunks > 1 and cpus > 1
        assert len(started) == (1 if helped else 0)
        caller = threading.get_ident()
        assert [builders[k] == caller for k in range(n_chunks)] == [
            k % 2 == 0 or not helped for k in range(n_chunks)]

    @pytest.mark.parametrize("steps, n, helped", [(199, 20, False), (200, 20, True)])
    def test_no_helper_for_small_windows(self, monkeypatch, steps, n, helped):
        assert (steps * n >= adjacency.HELPER_MIN_ENTRIES) == helped
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(62)
        windows = [lti_window(rng, n=n, steps=steps, offset=1.0) for _ in range(WINDOW_CHUNK + 1)]
        assert windows[0].data.shape == (steps, n)
        started = _thread_starts(monkeypatch)
        cfg = DmdConfig()
        tensors = build_tensors(windows, cfg)
        assert len(started) == (1 if helped else 0)
        for w, t in zip(windows, tensors):
            assert t.layers.tobytes() == frozen_build(w, cfg).tobytes()

    def test_group_results_keep_each_window_s_own_types(self):
        # np.linalg.eig types a stack complex if any eigenvalue in it is;
        # the all-real window must still get its own real modes
        rng = np.random.default_rng(44)
        windows = [mean_centered(lti_window(rng, n=6, steps=300, offset=1.0))
                   for _ in range(3)]
        windows.insert(1, mean_centered(real_modes_window(rng, 6)))
        stack = WindowStack(data=np.stack([w.data for w in windows]), t_starts=(0, 1, 2, 3))
        cfg = DmdConfig()
        groups = [(np.arange(4)[r.index].tolist(), r) for r in dmd(stack, cfg)]
        assert sorted(k for index, _ in groups for k in index) == [0, 1, 2, 3]
        for index, result in groups:
            for j, k in enumerate(index):
                phi, lam, _ = lone_dmd(windows[k], cfg)
                assert result.modes[j].dtype == phi.dtype
                assert result.modes[j].tobytes() == phi.tobytes()
                assert result.eigenvalues[j].tobytes() == lam.tobytes()
        assert lone_dmd(windows[1], cfg)[0].dtype == np.float64


STEPS = 16


def _nan_mean_window():
    """Finite samples whose channel-0 mean is NaN: the column is contiguous,
    so its sum is pairwise and +inf meets -inf."""
    col = np.zeros(STEPS)
    col[[0, 8]], col[[1, 9]] = 1e308, -1e308
    data = np.asfortranarray(np.column_stack([col] + [np.arange(STEPS, dtype=float)] * 3))
    return TimeSeriesWindow(data=data, dt=0.001)


def _overflowing_window(rng):
    """Centers to finite samples, but its leading singular value overflows."""
    sign = (-1.0) ** np.arange(STEPS)[:, None]
    return TimeSeriesWindow(data=5e307 * sign * rng.uniform(0.9, 1.0, (STEPS, 4)), dt=0.001)


class TestStackedErrors:
    """A failing window inside a stack raises what it raises alone, and of
    several the first in window order is the one reported."""

    BAD = {
        "nan_mean": lambda rng: _nan_mean_window(),
        "all_zero": lambda rng: TimeSeriesWindow(data=np.zeros((STEPS, 4)), dt=0.001),
        "non_finite_svd": _overflowing_window,
    }

    @staticmethod
    def _raised(fn, *args):
        # no thread outlives a failed build
        threads = threading.active_count()
        with np.errstate(all="ignore"):
            with pytest.raises((DataError, NumericalFailureError)) as exc:
                fn(*args)
        assert threading.active_count() == threads
        return type(exc.value), str(exc.value)

    def _alone(self, window, cfg):
        want = self._raised(build_tensors, [window], cfg)
        assert self._raised(lambda: build_adjacency(mean_centered(window), cfg)) == want
        return want

    def _windows(self, rng, count=10):
        return [lti_window(rng, n=4, steps=STEPS, offset=1.0) for _ in range(count)]

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("at", [0, 3, WINDOW_CHUNK - 1, WINDOW_CHUNK])
    def test_lone_failure(self, bad, at):
        rng = np.random.default_rng(50)
        windows = self._windows(rng)
        windows[at] = self.BAD[bad](rng)
        cfg = DmdConfig()
        want = self._alone(windows[at], cfg)
        assert self._raised(build_tensors, windows, cfg) == want

    def test_frozen_build_raises_the_same(self):
        # the overflowing window is left out: the frozen build ran out of
        # retained values there and raised a bare ValueError
        cfg = DmdConfig()
        for bad in ("nan_mean", "all_zero"):
            window = self.BAD[bad](np.random.default_rng(52))
            assert self._alone(window, cfg) == self._raised(frozen_build, window, cfg)

    def test_later_stage_failure_of_an_earlier_window_wins(self, monkeypatch):
        # a one-mode reduced operator stands in for a window that passes the
        # SVD and fails after it, which real data rarely does; the all-zero
        # window after it fails the whole stack's SVD first
        real_eig_small = dmd_module.eig_small

        def eig_small(a_tilde):
            if a_tilde.shape[-1] == 1:
                raise NumericalFailureError("one-mode operator")
            return real_eig_small(a_tilde)

        monkeypatch.setattr(dmd_module, "eig_small", eig_small)
        rng = np.random.default_rng(53)
        windows = self._windows(rng)
        windows[2] = rank_one_window(rng, 4, steps=STEPS)
        windows[5] = self.BAD["all_zero"](rng)
        cfg = DmdConfig()
        want = self._alone(windows[2], cfg)
        assert want == (NumericalFailureError, "one-mode operator")
        assert self._raised(build_tensors, windows, cfg) == want

    @pytest.mark.parametrize("first, second", [
        ("all_zero", "nan_mean"), ("all_zero", "non_finite_svd"), ("nan_mean", "non_finite_svd"),
        ("non_finite_svd", "all_zero"), ("non_finite_svd", "nan_mean"),
    ])
    def test_first_failure_in_window_order_wins(self, first, second):
        rng = np.random.default_rng(51)
        windows = self._windows(rng)
        windows[2], windows[5] = self.BAD[first](rng), self.BAD[second](rng)
        cfg = DmdConfig()
        want = self._alone(windows[2], cfg)
        assert want != self._alone(windows[5], cfg)
        assert self._raised(build_tensors, windows, cfg) == want

    # windows 0 .. WINDOW_CHUNK - 1 are the caller's first chunk, the next
    # WINDOW_CHUNK the helper's, and the rest a third chunk, the caller's
    THREE_CHUNKS = 2 * WINDOW_CHUNK + 2

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("at", [WINDOW_CHUNK, 2 * WINDOW_CHUNK - 1, 2 * WINDOW_CHUNK + 1])
    def test_failure_in_a_later_chunk(self, monkeypatch, cpus, bad, at):
        _allow_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(54)
        windows = self._windows(rng, self.THREE_CHUNKS)
        windows[at] = self.BAD[bad](rng)
        cfg = DmdConfig()
        assert self._raised(build_tensors, windows, cfg) == self._alone(windows[at], cfg)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("first, second", [
        ("all_zero", "nan_mean"), ("nan_mean", "non_finite_svd"), ("non_finite_svd", "all_zero"),
    ])
    def test_caller_s_chunk_wins_over_the_helper_s(self, monkeypatch, cpus, first, second):
        _allow_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(55)
        windows = self._windows(rng, self.THREE_CHUNKS)
        windows[WINDOW_CHUNK - 1] = self.BAD[first](rng)
        windows[WINDOW_CHUNK] = self.BAD[second](rng)
        cfg = DmdConfig()
        want = self._alone(windows[WINDOW_CHUNK - 1], cfg)
        assert want != self._alone(windows[WINDOW_CHUNK], cfg)
        assert self._raised(build_tensors, windows, cfg) == want

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_helper_keeps_the_caller_s_error_state(self, monkeypatch, cpus):
        _allow_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(57)
        windows = self._windows(rng, self.THREE_CHUNKS)
        windows[WINDOW_CHUNK] = self.BAD["nan_mean"](rng)
        threads = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            build_tensors(windows, DmdConfig())
        assert threading.active_count() == threads

    def test_caller_s_failure_waits_for_the_helper(self, monkeypatch):
        # the helper is still building when the caller's chunk fails
        _allow_cpus(monkeypatch, 2)
        rng = np.random.default_rng(56)
        windows = self._windows(rng, self.THREE_CHUNKS)
        windows[0] = self.BAD["all_zero"](rng)
        real_chunk_tensors = adjacency._chunk_tensors
        caller = threading.get_ident()
        released, finished = threading.Event(), []

        def chunk_tensors(chunk, cfg, buf):
            if threading.get_ident() == caller:
                try:
                    return real_chunk_tensors(chunk, cfg, buf)
                finally:
                    released.set()
            released.wait()
            out = real_chunk_tensors(chunk, cfg, buf)
            finished.append(chunk[0].t_start)
            return out

        monkeypatch.setattr(adjacency, "_chunk_tensors", chunk_tensors)
        cfg = DmdConfig()
        want = self._alone(windows[0], cfg)
        assert self._raised(build_tensors, windows, cfg) == want
        assert finished == [windows[WINDOW_CHUNK].t_start]


class TestInvariantProperties:
    def test_amplitude_scaling_leaves_layers_invariant(self):
        rng = np.random.default_rng(13)
        phi = random_modes(rng, 4, 3)
        lam = rng.uniform(0.5, 1.1, 3) * np.exp(1j * rng.uniform(0, np.pi, 3))
        for c in (3.0, 0.02):
            base = _stack(phi, lam, 50)
            scaled = _stack(c * phi, lam, 50)
            tb, ts = normalize_layers(base), normalize_layers(scaled)
            # the coupling layer's epsilon regularization perturbs exact
            # scale invariance at the ~eps/|v| level
            np.testing.assert_allclose(tb.layers, ts.layers, atol=1e-5)

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        phi = random_modes(rng, 5, 4)
        lam = rng.uniform(0.5, 1.0, 4) * np.exp(1j * rng.uniform(0, np.pi, 4))
        perm = rng.permutation(5)
        base = normalize_layers(_stack(phi, lam, 40)).layers
        permuted = normalize_layers(_stack(phi[perm], lam, 40)).layers
        np.testing.assert_allclose(permuted, base[perm][:, perm, :], atol=1e-12)

    def test_random_results_bounds_suite(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n, r = int(rng.integers(2, 8)), int(rng.integers(1, 6))
            phi = random_modes(rng, n, r)
            lam = rng.uniform(0.1, 1.05, r) * np.exp(1j * rng.uniform(0, np.pi, r))
            raw = _stack(phi, lam, 100)
            for l in range(N_LAYERS):
                layer = raw[:, :, l]
                assert np.abs(layer - layer.T).max() <= 1e-9
            assert raw[:, :, 0].min() >= 0.0
            assert np.abs(raw[:, :, 1]).max() <= 1.0
            assert np.abs(raw[:, :, 2]).max() <= 1.0 + 1e-12
            t = normalize_layers(raw)
            for l in range(N_LAYERS):
                peak = np.abs(t.layers[:, :, l]).max()
                if peak > 0:
                    assert peak == pytest.approx(1.0, abs=1e-12)


def _stack(phi, lam, length):
    return np.stack([
        layer_participation(phi),
        layer_coupling(phi),
        layer_phase(phi),
        layer_growth(phi, lam),
        layer_energy(phi, lam, length),
    ], axis=-1)


def _fake_record(n=3, length_ms=30000, seed=0, event_ms=20000):
    """A scenario of one synthetic trajectory (1 ms sampling) with its
    event at ``event_ms``, so its first training sequence ends there."""
    rng = np.random.default_rng(seed)
    t = np.arange(length_ms + 1) * 0.001
    base = np.stack([np.sin(2 * np.pi * (0.8 + 0.2 * i) * t) for i in range(n)],
                    axis=1)
    return ScenarioRecord(
        mix=GenerationMix(34, 33, 33), event="load_increase", seed=seed,
        trajectory=base + 0.01 * rng.standard_normal(base.shape), dt=0.001,
        event_ms=event_ms, channel_names=tuple(f"c{i}" for i in range(n)),
        channel_offsets=np.zeros(n), generator_spectrum=np.zeros(0, dtype=complex),
    )


def _sequence(record, cfg):
    """The one sequence sample ending at the record's event time."""
    proto = WindowProtocol(sequence=cfg, sample_count=1)
    (sample,) = window_dataset(record, proto).training
    return sample


class TestBuildSequence:
    def test_window_start_arithmetic(self):
        cfg = SequenceConfig(l_seq=5, window_ms=1000, stride_ms=100)
        sample = _sequence(_fake_record(event_ms=20000), cfg)
        starts = [w.t_start for w in sample.windows]
        assert starts == [18601, 18701, 18801, 18901, 19001]
        assert sample.windows[-1].t_start == 19001
        assert len(sample.tensors) == 5

    def test_insufficient_history(self):
        record = _fake_record(length_ms=1200, event_ms=1200)
        cfg = SequenceConfig(l_seq=5, window_ms=1000, stride_ms=100)
        with pytest.raises(InsufficientHistoryError):
            _sequence(record, cfg)

    @pytest.mark.parametrize("t_nan", [18610, 19995])
    def test_non_finite_sample_in_one_window_raises(self, t_nan):
        # 18610 is in the first window only, 19995 in the last only
        record = _fake_record(event_ms=20000)
        record.trajectory[t_nan] = np.nan
        cfg = SequenceConfig(l_seq=5, window_ms=1000, stride_ms=100)
        with pytest.raises(DegenerateWindowError, match="window contains non-finite samples"):
            _sequence(record, cfg)

    def test_non_finite_sample_between_windows_is_not_read(self):
        # windows [19501, 19600], [19701, 19800] and [19901, 20000]
        cfg = SequenceConfig(l_seq=3, window_ms=100, stride_ms=200)
        record = _fake_record(event_ms=20000)
        record.trajectory[19650] = np.nan
        sample = _sequence(record, cfg)
        assert [w.t_start for w in sample.windows] == [19501, 19701, 19901]
        assert all(np.isfinite(w.data).all() for w in sample.windows)
        record.trajectory[19750] = np.nan
        with pytest.raises(DegenerateWindowError, match="window contains non-finite samples"):
            _sequence(record, cfg)

    def test_zero_stride_degenerate(self):
        cfg = SequenceConfig(l_seq=3, window_ms=500, stride_ms=0)
        sample = _sequence(_fake_record(event_ms=10000), cfg)
        for t in sample.tensors[1:]:
            np.testing.assert_array_equal(t.layers, sample.tensors[0].layers)


class TestMeanCentered:
    def test_removes_channel_means(self):
        rng = np.random.default_rng(16)
        w = TimeSeriesWindow(data=rng.standard_normal((50, 3)) + [1.0, 60.0, 0.0],
                             dt=0.001, t_start=42)
        c = mean_centered(w)
        np.testing.assert_allclose(c.data.mean(axis=0), 0.0, atol=1e-12)
        assert c.t_start == 42

    def test_constant_window_kept_raw(self):
        w = TimeSeriesWindow(data=np.full((10, 2), 3.0), dt=0.001)
        assert mean_centered(w) is w
        w = TimeSeriesWindow(data=np.tile([3.0, -60.0, 0.0], (10, 1)), dt=0.001)
        assert mean_centered(w) is w

    def test_one_varying_channel_is_centered(self):
        data = np.tile([3.0, -60.0, 0.0], (10, 1))
        data[:, 1] += np.arange(10.0)
        w = TimeSeriesWindow(data=data, dt=0.001)
        c = mean_centered(w)
        assert c is not w
        np.testing.assert_array_equal(c.data[:, [0, 2]], 0.0)
        np.testing.assert_array_equal(c.data[:, 1], np.arange(10.0) - 4.5)

    def test_overflowing_mean_raises(self):
        w = TimeSeriesWindow(data=np.full((4, 2), 1e308), dt=0.001)
        with np.errstate(over="ignore"), pytest.raises(DegenerateWindowError):
            mean_centered(w)

    def test_nan_mean_raises(self):
        # On a contiguous column the sum is pairwise, so +inf and -inf
        # partial sums meet and the mean is NaN; such a window is as
        # undecomposable as one whose mean overflows.
        col = np.zeros(16)
        col[[0, 8]], col[[1, 9]] = 1e308, -1e308
        data = np.asfortranarray(np.column_stack([col, np.arange(16.0)]))
        w = TimeSeriesWindow(data=data, dt=0.001)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(w.data.mean(axis=0)[0])
            with pytest.raises(DegenerateWindowError):
                mean_centered(w)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((4, 4, N_LAYERS))
        raw = 0.5 * (raw + raw.transpose(1, 0, 2))
        t = normalize_layers(raw, source_window=12345)
        blob = tensor_to_bytes(t)
        back, consumed = tensor_from_bytes(blob)
        assert consumed == len(blob)
        assert back.n == 4 and back.source_window == 12345
        np.testing.assert_array_equal(back.layers, t.layers)

    def test_layer_major_layout(self):
        t = AdjacencyTensor(layers=np.arange(8.0).reshape(2, 2, 2), n=2,
                            source_window=0)
        blob = tensor_to_bytes(t)
        flat = np.frombuffer(blob[tensor_to_bytes(t).index(b"") + 21:], dtype="<f8")
        # header is 21 bytes; payload is layer 0 row-major then layer 1
        payload = np.frombuffer(blob[21:], dtype="<f8")
        np.testing.assert_array_equal(payload[:4], t.layers[:, :, 0].reshape(-1))
        np.testing.assert_array_equal(payload[4:], t.layers[:, :, 1].reshape(-1))

    def test_corrupt_magic_rejected(self):
        t = normalize_layers(np.ones((2, 2, N_LAYERS)))
        blob = bytearray(tensor_to_bytes(t))
        blob[0] = 0x58
        with pytest.raises(DataError):
            tensor_from_bytes(bytes(blob))

    def test_truncated_rejected(self):
        t = normalize_layers(np.ones((2, 2, N_LAYERS)))
        blob = tensor_to_bytes(t)
        with pytest.raises(DataError):
            tensor_from_bytes(blob[:-8])
