import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import dramn
import dramn.datagen as datagen
from dramn.datagen import (
    SCAN_BLOCK,
    GenerationMix,
    ScenarioSpec,
    SurrogateConfig,
    WindowProtocol,
    build_surrogate,
    inject_noise,
    label_scenario,
    scenario_seed,
    subsample_scenarios,
    synthesize_scenario,
    ternary_grid,
    window_dataset,
    _add_noise,
    _first_order_scan,
    _noise_response,
    _saturate,
    _scan_block,
)
from dramn.dmd import DmdConfig, TimeSeriesWindow, WindowStack, dmd
from dramn.errors import ConfigError, DataError, InsufficientHistoryError, LabelingError
from dramn.training import Standardizer

FAST = SurrogateConfig(n_units=3, include_pq=False, include_line_flows=False,
                       duration_ms=40000, process_noise_std=0.0, snr_db=None)


def exhaustive_compositions(total, min_share, step):
    """Brute-force oracle: count lattice compositions directly."""
    count = 0
    for a in range(min_share, total + 1):
        for b in range(min_share, total + 1):
            c = total - a - b
            if c < min_share:
                continue
            if a % step or b % step or c % step:
                continue
            count += 1
    return count


class TestTernaryGrid:
    def test_default_count(self):
        assert len(ternary_grid()) == 4851

    def test_tiny_exhaustive(self):
        mixes = ternary_grid(total=4, min_share=1, step=1)
        assert {(m.sg, m.gfm, m.gfl) for m in mixes} == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}

    def test_step_two_matches_brute_force(self):
        mixes = ternary_grid(total=100, min_share=1, step=2)
        assert len(mixes) == 1176
        assert len(mixes) == exhaustive_compositions(100, 1, 2)

    def test_all_sum_and_bounds(self):
        for m in ternary_grid(total=30, min_share=2, step=2):
            assert m.total == 30
            assert min(m.sg, m.gfm, m.gfl) >= 2

    def test_infeasible(self):
        with pytest.raises(ConfigError):
            ternary_grid(total=2, min_share=1, step=1)
        with pytest.raises(ConfigError):
            ternary_grid(total=99, min_share=1, step=2)


class TestSurrogate:
    def test_heavy_damping_region_is_stable(self):
        cfg = SurrogateConfig()
        lam = build_surrogate(GenerationMix(90, 5, 5), cfg).spectrum()
        assert lam.real.max() < 0.0
        osc = np.abs(lam.imag) > 1e-9
        if osc.any():
            zeta = -lam.real[osc] / np.abs(lam[osc])
            assert zeta.min() >= 0.03

    def test_converter_heavy_region_is_unstable(self):
        cfg = SurrogateConfig()
        lam = build_surrogate(GenerationMix(5, 10, 85), cfg).spectrum()
        assert lam.real.max() > 0.0

    def test_spectrum_varies_smoothly(self):
        cfg = SurrogateConfig()
        a = build_surrogate(GenerationMix(40, 30, 30), cfg).spectrum()
        b = build_surrogate(GenerationMix(41, 30, 29), cfg).spectrum()
        assert abs(sorted(a.real)[-1] - sorted(b.real)[-1]) < 0.5

    def test_output_map_full_rank(self):
        cfg = SurrogateConfig()
        sys_ = build_surrogate(GenerationMix(50, 25, 25), cfg)
        assert np.linalg.matrix_rank(sys_.output_map) == sys_.a_matrix.shape[0]


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_scenario(GenerationMix(50, 25, 25), "load_increase", 7, FAST)
        b = synthesize_scenario(GenerationMix(50, 25, 25), "load_increase", 7, FAST)
        assert a.trajectory.tobytes() == b.trajectory.tobytes()
        assert a.label == b.label

    def test_trajectory_shape_and_offsets(self):
        rec = synthesize_scenario(GenerationMix(60, 20, 20), "unperturbed", 3, FAST)
        assert rec.trajectory.shape == (40001, 6)
        v_cols = [i for i, nm in enumerate(rec.channel_names) if nm.startswith("v")]
        f_cols = [i for i, nm in enumerate(rec.channel_names) if nm.startswith("f")]
        assert np.allclose(rec.trajectory[:, v_cols].mean(), 1.0, atol=0.05)
        assert np.allclose(rec.trajectory[:, f_cols].mean(), 60.0, atol=0.5)

    def test_unstable_mix_grows_and_labels_1(self):
        # mix tuned so the dominant pair sits near Re = +0.1: amplitudes grow
        # by about exp(0.1 * dt) between windows 8 s apart
        cfg = SurrogateConfig(n_units=3, include_pq=False, include_line_flows=False,
                              process_noise_std=0.0, snr_db=None)
        rec = synthesize_scenario(GenerationMix(34, 17, 49), "load_increase", 9, cfg)
        re_max = rec.generator_spectrum.real.max()
        assert 0.02 < re_max < 0.3
        assert rec.label == 1
        # compare once the slowest growing mode dominates the envelope
        early = np.abs(rec.trajectory[46000:47000] - rec.channel_offsets).max()
        late = np.abs(rec.trajectory[54000:55000] - rec.channel_offsets).max()
        expected_ratio = np.exp(re_max * 8.0)
        assert late / early == pytest.approx(expected_ratio, rel=0.5)

    def test_short_circuit_clamps_faulted_voltages(self):
        rec = synthesize_scenario(GenerationMix(70, 15, 15), "short_circuit", 4, FAST)
        clamped = rec.trajectory[FAST.event_ms:FAST.event_ms + FAST.fault_ms + 1, 0]
        np.testing.assert_array_equal(clamped, FAST.fault_voltage)
        # restored afterwards
        assert abs(rec.trajectory[FAST.event_ms + 200, 0] - 1.0) < 0.5

    def test_load_step_shifts_operating_point(self):
        rec = synthesize_scenario(GenerationMix(80, 10, 10), "load_increase", 5, FAST)
        pre = rec.trajectory[15000:19000, 0].mean()
        post = rec.trajectory[35000:39000, 0].mean()
        assert abs(post - pre) > 1e-4

    def test_bad_event(self):
        with pytest.raises(ConfigError):
            synthesize_scenario(GenerationMix(50, 25, 25), "earthquake", 1, FAST)



def loop_scan(x, lam):
    """Reference: y[:, n] = x[:, n] + lam * y[:, n - 1], one sample at a time."""
    y = np.empty(x.shape, dtype=np.result_type(x, lam))
    acc = np.zeros(x.shape[0], dtype=y.dtype)
    for n in range(x.shape[1]):
        acc = x[:, n] + lam * acc
        y[:, n] = acc
    return y


class TestModalScan:
    # decaying, unit-modulus, growing, real decaying, real unit, real negative
    LAM = np.array([0.97 * np.exp(0.3j), np.exp(0.1j), 1.01 * np.exp(-0.2j),
                    0.7 + 0j, 1.0 + 0j, -0.95 + 0j])

    @pytest.mark.parametrize("length", [1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1,
                                        3 * SCAN_BLOCK + 5])
    def test_matches_per_sample_loop(self, length):
        rng = np.random.default_rng(length)
        x = (rng.standard_normal((self.LAM.size, length))
             + 1j * rng.standard_normal((self.LAM.size, length)))
        np.testing.assert_allclose(_first_order_scan(x, self.LAM), loop_scan(x, self.LAM),
                                   rtol=1e-12)

    def test_matches_lfilter_on_benchmark_grid(self):
        signal = pytest.importorskip("scipy.signal")
        cfg = SurrogateConfig()
        rng = np.random.default_rng(41)
        for mix in ternary_grid(100, 10, 10):
            evals = np.linalg.eigvals(build_surrogate(mix, cfg).a_matrix)
            lam = np.exp(evals * cfg.dt)
            x = (rng.standard_normal((lam.size, 60001))
                 + 1j * rng.standard_normal((lam.size, 60001)))
            ref = np.array([signal.lfilter([1.0], [1.0, -l], row) for l, row in zip(lam, x)])
            err = np.abs(_first_order_scan(x, lam) - ref).max(axis=1)
            assert np.all(err <= 1e-10 * np.abs(ref).max(axis=1)), mix

    @pytest.mark.parametrize("re_s", [-1e4, -1e5])
    def test_finite_for_heavy_damping(self, re_s):
        # at dt = 1 ms, lam^-63 is e^630 and e^6300: the block must shrink
        lam = np.exp(np.array([re_s + 30j, re_s - 30j, re_s + 0j]) * 1e-3)
        x = np.random.default_rng(5).standard_normal((3, 60001)).astype(complex)
        y = _first_order_scan(x, lam)
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y, loop_scan(x, lam), rtol=1e-12)

    def test_noise_response_is_the_discrete_state_recursion(self):
        cfg = SurrogateConfig(n_units=3)
        system = build_surrogate(GenerationMix(50, 25, 25), cfg)
        evals, evecs = np.linalg.eig(system.a_matrix)
        n = 3 * SCAN_BLOCK + 5
        out = np.zeros((6, n))
        _noise_response(out, system, evals, evecs, cfg, np.random.default_rng(2))
        forcing = np.zeros((6, n))
        forcing[3:] = cfg.process_noise_std * np.random.default_rng(2).standard_normal((3, n))
        step = np.real(evecs @ np.diag(np.exp(evals * cfg.dt)) @ np.linalg.inv(evecs))
        ref = np.empty_like(forcing)
        state = np.zeros(6)
        for i in range(n):
            state = forcing[:, i] + step @ state
            ref[:, i] = state
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-10 * np.abs(ref).max())

    def test_generate_imports_no_scipy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(dramn.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys\n"
                "from dramn.cli import main\n"
                "rc = main(['generate', '--config', 'demo'])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                "sys.exit(rc)\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert (tmp_path / "demo" / "scenarios" / "manifest.json").exists()


class TestLabeling:
    def _record(self, spectrum, traj=None, cfg=FAST):
        rec = synthesize_scenario(GenerationMix(80, 10, 10), "unperturbed", 2, cfg)
        rec.generator_spectrum = np.asarray(spectrum, dtype=complex)
        if traj is not None:
            rec.trajectory = traj
        return rec

    def test_damped_oscillation_stable(self):
        rec = self._record([-1 + 5j, -1 - 5j])
        # zeta = 1/sqrt(26) ~ 0.196, comfortably damped
        assert label_scenario(rec) == 0

    def test_positive_real_part(self):
        rec = self._record([0.3687 + 2j, 0.3687 - 2j, -5.0])
        assert label_scenario(rec) == 1

    def test_voltage_excursion_after_guard(self):
        rec = self._record([-1 + 5j, -1 - 5j])
        traj = rec.trajectory.copy()
        row = rec._row(30000)
        traj[row, 0] = 1.06
        rec.trajectory = traj
        assert label_scenario(rec) == 1

    def test_excursion_before_guard_ignored(self):
        rec = self._record([-1 + 5j, -1 - 5j])
        traj = rec.trajectory.copy()
        traj[rec._row(21000), 0] = 1.20
        rec.trajectory = traj
        assert label_scenario(rec) == 0

    def test_frequency_excursion(self):
        rec = self._record([-1 + 5j, -1 - 5j])
        traj = rec.trajectory.copy()
        f_col = list(rec.channel_names).index("f0")
        traj[rec._row(32000), f_col] = 59.5
        rec.trajectory = traj
        assert label_scenario(rec) == 1

    def test_low_damping_ratio(self):
        rec = self._record([-0.1 + 8j, -0.1 - 8j])
        assert -(-0.1) / abs(-0.1 + 8j) < 0.03
        assert label_scenario(rec) == 1

    def test_missing_spectrum(self):
        rec = self._record([-1.0])
        rec.generator_spectrum = np.array([])
        with pytest.raises(LabelingError):
            label_scenario(rec)

    def test_monotone_in_spectrum_shift(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam = (-rng.uniform(0.05, 2.0, 3)
                   + 1j * rng.uniform(0.5, 8.0, 3))
            lam = np.concatenate([lam, lam.conj()])
            rec = self._record(lam)
            base = label_scenario(rec)
            rec.generator_spectrum = lam + rng.uniform(0.01, 3.0)
            shifted = label_scenario(rec)
            assert not (base == 1 and shifted == 0)


class TestSurrogateFidelity:
    def test_dmd_recovers_continuous_spectrum(self):
        cfg = SurrogateConfig(process_noise_std=0.0, snr_db=None)
        rec = synthesize_scenario(GenerationMix(40, 30, 30), "unperturbed", 5, cfg)
        m = rec.generator_spectrum.size
        w = rec.window_at(2000, 1000)
        deviations = TimeSeriesWindow(data=w.data - rec.channel_offsets,
                                      dt=rec.dt, t_start=w.t_start)
        [res] = dmd(WindowStack.of(deviations), DmdConfig(rank=m, svd_rel_tol=1e-12))
        assert res.r_eff == m
        want = sorted(np.abs(np.exp(rec.generator_spectrum * rec.dt)))
        got = sorted(np.abs(res.eigenvalues[0]))
        assert max(abs(g - w_) for g, w_ in zip(got, want)) <= 1e-5


class TestWindowing:
    def test_peak_memory_of_a_paper_scenario(self):
        # the 295 tensors are about half the trajectory; the stacked build
        # adds one buffer of WINDOW_CHUNK centered windows and its SVD per
        # thread
        record = synthesize_scenario(GenerationMix(50, 25, 25), "short_circuit", 11,
                                     SurrogateConfig())
        tracemalloc.start()
        try:
            out = window_dataset(record, WindowProtocol(), include_generalization=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 5 * (len(out.training) + len(out.generalization)) == 295
        assert peak <= 1.5 * record.trajectory.nbytes

    def test_event_scenario_yields_eleven(self):
        rec = synthesize_scenario(GenerationMix(70, 15, 15), "load_increase", 6,
                                  SurrogateConfig(n_units=3, include_pq=False))
        proto = WindowProtocol()
        out = window_dataset(rec, proto)
        assert len(out.training) == 11
        ends = [s.t_end for s in out.training]
        assert ends == list(range(20000, 30001, 1000))
        last_windows = [s.windows[-1] for s in out.training]
        assert [w.t_start for w in last_windows] == list(range(19001, 29002, 1000))

    def test_labels_inherited(self):
        rec = synthesize_scenario(GenerationMix(5, 10, 85), "load_increase", 6,
                                  SurrogateConfig(n_units=3, include_pq=False))
        out = window_dataset(rec, WindowProtocol())
        assert all(s.label == rec.label for s in out.training)

    def test_generalization_disjoint(self):
        rec = synthesize_scenario(GenerationMix(70, 15, 15), "short_circuit", 6,
                                  SurrogateConfig(n_units=3, include_pq=False))
        out = window_dataset(rec, WindowProtocol(), include_generalization=True)
        train_ends = {s.t_end for s in out.training}
        gen_ends = {s.t_end for s in out.generalization}
        assert gen_ends
        assert not (train_ends & gen_ends)
        assert all(e <= 19000 or e > 30000 for e in gen_ends)

    def test_unperturbed_sampling(self):
        rec = synthesize_scenario(GenerationMix(70, 15, 15), "unperturbed", 6,
                                  SurrogateConfig(n_units=3, include_pq=False))
        out = window_dataset(rec, WindowProtocol())
        assert len(out.training) == 11
        assert all(10000 <= s.t_end <= 60000 for s in out.training)
        rerun = window_dataset(rec, WindowProtocol())
        assert [s.t_end for s in rerun.training] == [s.t_end for s in out.training]

    def test_short_scenario_errors(self):
        rec = synthesize_scenario(
            GenerationMix(70, 15, 15), "load_increase", 6,
            SurrogateConfig(n_units=3, include_pq=False, duration_ms=25000))
        with pytest.raises(InsufficientHistoryError):
            window_dataset(rec, WindowProtocol())

    def test_windows_view_the_trajectory(self):
        rec = synthesize_scenario(GenerationMix(70, 15, 15), "load_increase", 6, FAST)
        out = window_dataset(rec, WindowProtocol(), include_generalization=True)
        for sample in out.training + out.generalization:
            for w in sample.windows:
                assert np.shares_memory(w.data, rec.trajectory)
                with pytest.raises(ValueError, match="read-only"):
                    w.data[0, 0] = 0.0
        assert (rec.trajectory[:, 0] != 0.0).all()

    def test_copied_rows_are_private_to_the_sample(self):
        rec = synthesize_scenario(GenerationMix(70, 15, 15), "load_increase", 6, FAST)
        out = window_dataset(rec, WindowProtocol(), copy_rows=True)
        views = window_dataset(rec, WindowProtocol())
        for sample, view in zip(out.training, views.training):
            first, last = sample.windows[0].data, sample.windows[-1].data
            assert not np.shares_memory(first, rec.trajectory)
            assert np.shares_memory(first, last)  # one span per sample
            with pytest.raises(ValueError, match="read-only"):
                last[0, 0] = 0.0
            for w, v in zip(sample.windows, view.windows):
                assert same_bits(w.data, v.data)

    @pytest.mark.parametrize("snr_db", [35.0, None])
    def test_statistics_equal_copy_and_mean_reference(self, snr_db):
        # `window_dataset` used to copy each sample's span; its means and
        # the standardizer's statistics keep the bits of those copies
        cfg = SurrogateConfig(n_units=3, include_pq=True, duration_ms=40000,
                              snr_db=snr_db)
        rec = synthesize_scenario(GenerationMix(40, 20, 40), "short_circuit", 6, cfg)
        assert rec.trajectory.flags.c_contiguous
        samples = window_dataset(rec, WindowProtocol()).training
        copies = [[w.data.copy() for w in s.windows] for s in samples]
        for s, data in zip(samples, copies):
            assert same_bits(s.channel_means, np.stack([d.mean(axis=0) for d in data]))
        for s in samples[::2]:
            s.drop_windows(squares=True)
        total = total_sq = None
        for d in (d for data in copies for d in data):
            if total is None:
                total, total_sq = d.sum(axis=0), (d * d).sum(axis=0)
            else:
                total += d.sum(axis=0)
                total_sq += (d * d).sum(axis=0)
        count = sum(d.shape[0] for data in copies for d in data)
        mean = total / count
        std = Standardizer.fit(samples)
        assert same_bits(std.mean, mean)
        assert same_bits(std.std, np.sqrt(np.maximum(total_sq / count - mean * mean, 0.0)))

    def test_drop_windows_keeps_statistics(self):
        rec = synthesize_scenario(GenerationMix(70, 15, 15), "load_increase", 6, FAST)
        sample = window_dataset(rec, WindowProtocol()).training[3]
        means, squares = sample.channel_means, sample.channel_squares
        sample.drop_windows()
        assert sample.windows is None
        assert sample.rows == (1000,) * 5
        assert same_bits(sample.channel_means, means)
        assert same_bits(sample.channel_squares, squares)

    def test_diverged_skipped(self):
        rec = synthesize_scenario(GenerationMix(70, 15, 15), "load_increase", 6,
                                  SurrogateConfig(n_units=3, include_pq=False))
        rec.diverged = True
        out = window_dataset(rec, WindowProtocol())
        assert out.skipped_diverged
        assert not out.training


class TestSubsample:
    def _specs(self, n, event="load_increase"):
        return [ScenarioSpec(GenerationMix(1, 1, 98), event) for _ in range(n)]

    def test_ratio(self):
        kept = subsample_scenarios(self._specs(4851), keep_1_in=20, seed=0)
        assert len(kept) in (242, 243)

    def test_identity(self):
        specs = self._specs(10)
        assert subsample_scenarios(specs, keep_1_in=1, seed=0) == specs

    def test_deterministic(self):
        specs = self._specs(200)
        a = subsample_scenarios(specs, 20, seed=5)
        b = subsample_scenarios(specs, 20, seed=5)
        assert [id(x) for x in a] == [id(x) for x in b]

    def test_unperturbed_kept_by_default(self):
        specs = self._specs(40) + self._specs(10, event="unperturbed")
        kept = subsample_scenarios(specs, 20, seed=1)
        assert sum(1 for s in kept if s.event == "unperturbed") == 10

    def test_empty(self):
        with pytest.raises(DataError):
            subsample_scenarios([], 20, seed=0)


class TestInjectNoise:
    def _window(self, rng, power=1.0):
        data = rng.standard_normal((100000, 2)) * np.sqrt(power) + [1.0, 60.0]
        return TimeSeriesWindow(data=data, dt=0.001)

    def test_disabled_sentinels(self):
        rng = np.random.default_rng(1)
        w = self._window(rng)
        assert inject_noise(w, None) is w
        assert inject_noise(w, np.inf) is w

    def test_zero_db_power_ratio(self):
        rng = np.random.default_rng(2)
        w = self._window(rng, power=2.0)
        noisy = inject_noise(w, 0.0, seed=3)
        added = noisy.data - w.data
        sig_power = ((w.data - w.data.mean(axis=0)) ** 2).mean(axis=0)
        noise_power = (added ** 2).mean(axis=0)
        np.testing.assert_allclose(noise_power, sig_power, rtol=0.02)

    def test_two_seeds_differ_same_power(self):
        rng = np.random.default_rng(4)
        w = self._window(rng)
        a = inject_noise(w, 10.0, seed=1)
        b = inject_noise(w, 10.0, seed=2)
        assert not np.array_equal(a.data, b.data)
        pa = ((a.data - w.data) ** 2).mean()
        pb = ((b.data - w.data) ** 2).mean()
        assert abs(pa - pb) / pa < 0.02

    def test_zero_power_channel_unit_floor(self):
        data = np.zeros((1000, 1)) + 5.0
        w = TimeSeriesWindow(data=data, dt=0.001)
        noisy = inject_noise(w, 20.0, seed=5)
        added_power = ((noisy.data - data) ** 2).mean()
        assert added_power == pytest.approx(10 ** (-2.0), rel=0.2)

    def test_record_uses_nominal_offsets(self):
        rec = synthesize_scenario(GenerationMix(70, 15, 15), "unperturbed", 8, FAST)
        noisy = inject_noise(rec, 30.0, seed=6)
        assert noisy is not rec
        assert noisy.label == rec.label
        dev = rec.trajectory - rec.channel_offsets
        added = noisy.trajectory - rec.trajectory
        ratio = (dev ** 2).mean(axis=0) / (added ** 2).mean(axis=0)
        np.testing.assert_allclose(10 * np.log10(ratio), 30.0, atol=0.5)


def reference_saturate(dev, linear, cap):
    """Reference for `_saturate`: out of place, np.where over every sample."""
    span = cap - linear
    mag = np.abs(dev)
    over = np.maximum(mag - linear, 0.0)
    compressed = np.where(mag > linear, linear + span * np.tanh(over / span), mag)
    return np.sign(dev) * compressed


def reference_add_noise(data, offsets, snr_db, rng):
    """Reference for `_add_noise`: out of place, one temporary per step."""
    dev = data - offsets
    p_sig = np.mean(dev * dev, axis=0)
    p_sig = np.where(p_sig > 0.0, p_sig, 1.0)
    sigma = np.sqrt(p_sig / (10.0 ** (snr_db / 10.0)))
    return data + rng.standard_normal(data.shape) * sigma


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestInPlaceMeasurementBits:
    """Saturation and measurement noise keep the bits of their out-of-place
    forms (the references above), on the layouts synthesis feeds them."""

    LINEAR = np.array([0.15, 0.15, 1.5, 1.5, 1.0])
    CAP = np.array([0.5, 0.5, 5.0, 5.0, 3.0])

    def _deviations(self, fortran):
        # channel-major like `output_map @ states`, read transposed: samples
        # inside the linear zone, between it and the cap, beyond the cap,
        # exact zeros of both signs and infinities
        rng = np.random.default_rng(17)
        dev = rng.standard_normal((5, 4000)) * np.array([[0.3], [0.05], [4.0], [1.0], [9.0]])
        dev[0, :6] = [0.0, -0.0, np.inf, -np.inf, 0.15, -0.15]
        dev[2, :3] = [1e300, -1e300, 5.0]
        return dev.T if fortran else np.ascontiguousarray(dev.T)

    @pytest.mark.parametrize("fortran", [True, False])
    def test_saturate_matches_reference(self, fortran):
        dev = self._deviations(fortran)
        assert (np.abs(dev) > self.CAP).any() and (np.abs(dev) > self.LINEAR).any()
        expected = reference_saturate(dev, self.LINEAR, self.CAP)
        negative_zero = (dev == 0.0) & np.signbit(dev)
        out = _saturate(dev, self.LINEAR, self.CAP)
        assert out is dev
        # -0.0 stays -0.0 (the reference's sign(x) * |x| gives +0.0); the
        # offsets synthesis adds next map both to the same value
        assert negative_zero.any() and np.signbit(out[negative_zero]).all()
        offsets = np.array([1.0, 0.0, 60.0, 0.0, 0.0])
        assert same_bits(out + offsets, expected + offsets)
        out[negative_zero] = 0.0
        assert same_bits(out, expected)
        assert np.abs(out).max() <= self.CAP.max()

    def test_saturate_inside_linear_zone_is_identity(self):
        dev = np.random.default_rng(5).uniform(-0.15, 0.15, (4000, 5))
        before = dev.copy()
        assert same_bits(_saturate(dev, self.LINEAR, self.CAP), before)

    @pytest.mark.parametrize("fortran", [True, False])
    def test_add_noise_matches_reference(self, fortran):
        dev = self._deviations(fortran)
        dev[~np.isfinite(dev)] = 0.0
        offsets = np.array([1.0, 1.0, 60.0, 0.0, 0.0])
        data = _saturate(dev, self.LINEAR, self.CAP)
        data += offsets
        data[:, 3] = 0.0  # zero deviation power: unit-power floor
        before = data.copy()
        expected = reference_add_noise(data, offsets, 25.0, np.random.default_rng(3))
        noisy = _add_noise(data, offsets, 25.0, np.random.default_rng(3))
        assert same_bits(noisy, expected)
        assert same_bits(data, before)

    def test_synthesis_matches_reference_forms(self, monkeypatch):
        import dramn.datagen as datagen

        cfg = SurrogateConfig(n_units=3, include_pq=True, include_line_flows=False,
                              duration_ms=30000, event_ms=10000)
        mix = GenerationMix(34, 17, 49)  # grows past the cap after the event
        new = synthesize_scenario(mix, "short_circuit", 9, cfg)
        monkeypatch.setattr(datagen, "_saturate", reference_saturate)
        monkeypatch.setattr(datagen, "_add_noise", reference_add_noise)
        old = synthesize_scenario(mix, "short_circuit", 9, cfg)
        assert new.label == old.label == 1
        assert same_bits(new.trajectory, old.trajectory)


class TestBlockedSynthesis:
    """Synthesis works in blocks of SYNTH_BLOCK rows; the block size changes
    neither a bit of the trajectory nor, beyond a few blocks, the memory."""

    GROWING = GenerationMix(10, 10, 80)
    # heavy damping at a 1 ms step: |ln lam| near 15 per sample, so the
    # modal scan's block shrinks below SCAN_BLOCK
    FAST_MODES = SurrogateConfig(damping_gain=2e4, duration_ms=30000, event_ms=10000)

    @pytest.mark.parametrize("block", [1000, 10 ** 6])
    @pytest.mark.parametrize("case", ["growing-load_increase", "growing-short_circuit",
                                      "fast-modes"])
    def test_bits_do_not_depend_on_the_block(self, monkeypatch, block, case):
        if case == "fast-modes":
            mix, event, cfg = GenerationMix(80, 10, 10), "load_increase", self.FAST_MODES
            evals = build_surrogate(mix, cfg).spectrum()
            n = cfg.duration_ms + 1
            assert 1 < _scan_block(np.exp(evals * cfg.dt), n) < SCAN_BLOCK
        else:
            mix, event, cfg = self.GROWING, case.split("-")[1], SurrogateConfig()
        default = synthesize_scenario(mix, event, 21, cfg)
        monkeypatch.setattr(datagen, "SYNTH_BLOCK", block)
        blocked = synthesize_scenario(mix, event, 21, cfg)
        assert blocked.trajectory.shape == default.trajectory.shape
        assert blocked.trajectory.flags.c_contiguous
        assert same_bits(blocked.trajectory, default.trajectory)
        assert blocked.label == default.label

    @pytest.mark.parametrize("event", ["load_increase", "short_circuit"])
    def test_peak_memory_is_a_few_trajectories(self, event):
        # nearly every sample of this mix saturates; synthesis over the
        # whole array peaked at 7.5 trajectories here
        tracemalloc.start()
        try:
            record = synthesize_scenario(self.GROWING, event, 21, SurrogateConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.label == 1 and not record.diverged
        assert peak <= 3 * record.trajectory.nbytes


class TestDatasetDeterminism:
    def test_full_pipeline_pure_function(self):
        cfg = SurrogateConfig(n_units=3, include_pq=False)
        spec = ScenarioSpec(GenerationMix(33, 33, 34), "short_circuit")
        seed = scenario_seed(99, spec)
        a = synthesize_scenario(spec.mix, spec.event, seed, cfg)
        b = synthesize_scenario(spec.mix, spec.event, seed, cfg)
        wa = window_dataset(a, WindowProtocol())
        wb = window_dataset(b, WindowProtocol())
        for sa, sb in zip(wa.training, wb.training):
            assert sa.t_end == sb.t_end
            for ta, tb in zip(sa.tensors, sb.tensors):
                assert ta.layers.tobytes() == tb.layers.tobytes()


class TestClassBalance:
    def test_unstable_fraction_in_band(self):
        cfg = SurrogateConfig()
        mixes = ternary_grid(total=100, min_share=5, step=5)
        for event in ("load_increase", "short_circuit"):
            labels = []
            for mix in mixes:
                lam = build_surrogate(mix, cfg).spectrum()
                unstable = lam.real.max() > 0
                if not unstable:
                    osc = np.abs(lam.imag) > 1e-9
                    zeta = -lam.real[osc] / np.abs(lam[osc])
                    unstable = bool(np.any(zeta < 0.03))
                labels.append(int(unstable))
            frac = np.mean(labels)
            assert 0.05 <= frac <= 0.95
