"""Acceptance suite: one test per exit criterion, each printing a verdict line.

The expensive fixtures (synthetic dataset, trained models) are module-scoped
and shared across criteria; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines as they complete.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from dramn.adjacency import (
    SequenceConfig,
    SequenceSample,
    build_adjacency,
    energy_factor,
    layer_coupling,
    layer_energy,
    layer_growth,
    layer_participation,
    layer_phase,
    mean_centered,
    normalize_layers,
)
from dramn.cli import main as cli_main
from dramn.datagen import (
    ScenarioSpec,
    SurrogateConfig,
    WindowProtocol,
    scenario_seed,
    subsample_scenarios,
    synthesize_scenario,
    ternary_grid,
    window_dataset,
)
from dramn.dmd import DmdConfig, TimeSeriesWindow, WindowStack, dmd
from dramn.evaluation import (
    ablation_run,
    evaluate_model,
    make_noise_augmented,
    noise_sweep,
)
from dramn.model import ModelDims, forward_trace_batch, init_params
from dramn.selection import build_report, top_k
from dramn.training import TrainConfig, backward_batch, train

pytestmark = pytest.mark.acceptance

ACCEPT_SEED = 11


@contextlib.contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num:02d}: {text}")
        raise
    print(f"\n[PASS] criterion {num:02d}: {text}")


# --------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def dataset():
    """The default synthetic dataset: ternary step 2, 1-in-20 subsampling."""
    t0 = time.perf_counter()
    cfg = SurrogateConfig()
    grid = ternary_grid(step=2)
    specs = [ScenarioSpec(mix, event)
             for event in ("load_increase", "short_circuit") for mix in grid]
    specs = subsample_scenarios(specs, 20, seed=ACCEPT_SEED)
    samples, records = [], {}
    for spec in specs:
        record = synthesize_scenario(spec.mix, spec.event,
                                     scenario_seed(ACCEPT_SEED, spec), cfg)
        records[record.scenario_id] = record
        samples.extend(window_dataset(record, WindowProtocol()).training)
    return {
        "samples": samples,
        "records": records,
        "channel_names": next(iter(records.values())).channel_names,
        "build_seconds": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def train_cfg():
    return TrainConfig(epochs=100, early_stop_patience=10, seed=ACCEPT_SEED)


@pytest.fixture(scope="module")
def trained(dataset, train_cfg):
    t0 = time.perf_counter()
    result = train(dataset["samples"], train_cfg)
    seconds = time.perf_counter() - t0
    metrics = evaluate_model(result.params, result.test_samples,
                             result.standardizer)
    return {"result": result, "metrics": metrics, "train_seconds": seconds}


# --------------------------------------------------------------------------
# criteria


def test_c01_dmd_spectral_recovery():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        moduli = np.linspace(0.4, 1.2, n)
        rng.shuffle(moduli)
        a = np.zeros((n, n))
        pos = 0
        k = 0
        while pos + 1 < n:
            r, th = moduli[k], rng.uniform(0.3, 2.6)
            a[pos:pos + 2, pos:pos + 2] = r * np.array(
                [[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
            pos += 2
            k += 1
        if pos < n:
            a[pos, pos] = moduli[k]
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = q @ a @ q.T
        steps = 10 * n
        data = np.empty((steps, n))
        data[0] = rng.standard_normal(n)
        for s in range(1, steps):
            data[s] = a @ data[s - 1]
        [res] = dmd(WindowStack.of(TimeSeriesWindow(data=data, dt=0.001)), DmdConfig(rank=n))
        got = sorted(np.abs(res.eigenvalues[0]))
        want = sorted(np.abs(np.linalg.eigvals(a)))[-len(got):]
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    elapsed = time.perf_counter() - t0
    with criterion(1, f"DMD spectral recovery (max modulus error "
                      f"{worst:.2e}, {elapsed:.1f}s)"):
        assert worst <= 1e-6
        assert elapsed < 10.0


def test_c02_energy_factor_oracle():
    def brute(rho, length):
        total = np.float64(0.0)
        term = np.float64(1.0)
        with np.errstate(over="ignore"):
            for _ in range(length):
                total += term
                term *= np.float64(rho) * np.float64(rho)
        return float(total)

    worst = 0.0
    with criterion(2, "energy factor equals the direct geometric sum"):
        for rho in (0.0, 0.5, 0.999, 1.0, 1.001, 1.5):
            for length in (1, 10, 1000):
                want = brute(rho, length)
                got = energy_factor(rho, length)
                if np.isinf(want):
                    assert np.isinf(got)
                    continue
                rel = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, rel)
                assert rel <= 1e-9
        assert energy_factor(1.0, 1000) == 1000.0


def test_c03_adjacency_bounds_suite():
    rng = np.random.default_rng(77)
    with criterion(3, "adjacency layer bounds and symmetry on 100 random "
                      "mode sets"):
        for case in range(100):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, 6))
            phi = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            unit_circle = case % 4 == 0
            if unit_circle:
                lam = np.exp(1j * rng.uniform(0, 2 * np.pi, r))
                lam /= np.abs(lam)
            else:
                lam = rng.uniform(0.1, 1.05, r) * np.exp(
                    1j * rng.uniform(0, np.pi, r))
            raw = np.stack([
                layer_participation(phi),
                layer_coupling(phi),
                layer_phase(phi),
                layer_growth(phi, lam),
                layer_energy(phi, lam, 100),
            ], axis=-1)
            for l in range(5):
                assert np.abs(raw[:, :, l] - raw[:, :, l].T).max() <= 1e-9
            assert raw[:, :, 0].min() >= 0.0
            assert np.abs(raw[:, :, 1]).max() <= 1.0
            assert np.abs(raw[:, :, 2]).max() <= 1.0 + 1e-12
            if unit_circle:
                assert np.abs(raw[:, :, 3]).max() <= 1e-9
            tensor = normalize_layers(raw)
            for l in range(5):
                peak = np.abs(tensor.layers[:, :, l]).max()
                if peak > 0.0:
                    assert abs(peak - 1.0) <= 1e-12


def test_c04_gradient_check():
    dims = ModelDims(n=4, f=8, h=8, d=5, l_seq=2)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_params(dims, seed + 100)
        means = rng.standard_normal((1, dims.l_seq, dims.n))
        layers = rng.standard_normal((1, dims.l_seq, dims.n, dims.n, dims.d))
        layers = 0.5 * (layers + layers.transpose(0, 1, 3, 2, 4))
        y = np.array([float(seed % 2)])
        _, grads = backward_batch(means, layers, params, y)
        assert np.abs(grads["alpha"]).max() > 0.0
        step = 1e-6
        for name, arr in params.tree().items():
            it = np.ndindex(arr.shape) if arr.shape else [()]
            for idx in it:
                orig = arr[idx]
                arr[idx] = orig + step
                up = float(np.abs(
                    forward_trace_batch(means, layers, params).p - y).mean())
                arr[idx] = orig - step
                down = float(np.abs(
                    forward_trace_batch(means, layers, params).p - y).mean())
                arr[idx] = orig
                fd = (up - down) / (2.0 * step)
                ga = grads[name][idx]
                worst = max(worst, abs(ga - fd) / max(abs(ga), abs(fd), 1e-6))
    elapsed = time.perf_counter() - t0
    with criterion(4, f"analytic vs finite-difference gradients "
                      f"(max rel err {worst:.2e}, {elapsed:.1f}s)"):
        assert worst <= 1e-4
        assert elapsed < 60.0


def test_c05_identity_graph_reduction():
    from test_model import reference_plain_lstm

    dims = ModelDims(n=5, f=12, h=12, d=5, l_seq=4)
    rng = np.random.default_rng(404)
    params = init_params(dims, 404)
    means = rng.standard_normal((8, dims.l_seq, dims.n))
    got = forward_trace_batch(means, None, params, identity_graph=True).p
    want = reference_plain_lstm(means, params)
    gap = np.abs(got - want).max()
    with criterion(5, f"identity-graph cell matches a plain LSTM "
                      f"(max gap {gap:.2e})"):
        assert gap <= 1e-10


def test_c06_end_to_end_classification(dataset, trained):
    metrics = trained["metrics"]
    total = dataset["build_seconds"] + trained["train_seconds"]
    with criterion(6, f"surrogate classification (AUROC {metrics.auroc:.4f}, "
                      f"recall {metrics.recall:.4f}, {total:.0f}s)"):
        assert metrics.auroc >= 0.95
        assert metrics.recall >= 0.90
        assert total <= 1800.0


def test_c07_ablation_ordering(dataset, trained, train_cfg):
    entries = ablation_run(dataset["samples"], ("lseq1", "lstm"), train_cfg)
    by_name = {e.variant: e for e in entries}
    full_auroc = trained["metrics"].auroc
    lstm_auroc = by_name["lstm"].metrics.auroc
    lseq1 = by_name["lseq1"]
    with criterion(7, f"ablation ordering (full {full_auroc:.4f}, "
                      f"lstm {lstm_auroc:.4f}, lseq1 "
                      f"{lseq1.metrics.auroc:.4f}"
                      f"{', non-convergent' if lseq1.non_convergent else ''})"):
        assert full_auroc >= lstm_auroc
        assert lseq1.non_convergent or lseq1.metrics.auroc < full_auroc


def _slice_samples(samples, names, keep, dmd_cfg):
    idx = [names.index(c) for c in keep]
    out = []
    for s in samples:
        windows = [TimeSeriesWindow(data=w.data[:, idx], dt=w.dt,
                                    channel_names=[w.channel_names[i] for i in idx],
                                    t_start=w.t_start) for w in s.windows]
        tensors = [build_adjacency(mean_centered(w), dmd_cfg) for w in windows]
        out.append(SequenceSample(windows=windows, tensors=tensors,
                                  label=s.label, scenario_id=s.scenario_id,
                                  t_end=s.t_end))
    return out


def test_c08_feature_selection(dataset, trained, train_cfg):
    # planted dominance: 4 active channels, 6 inert
    rng = np.random.default_rng(888)
    t = np.arange(600) * 0.001
    active = np.stack([np.exp(-0.4 * t) * np.sin(2 * np.pi * (1.1 + 0.3 * i) * t
                                                 + 0.4 * i)
                       for i in range(4)], axis=1)
    data = np.zeros((600, 10))
    data[:, :4] = active + 1e-3 * rng.standard_normal((600, 4))
    w = TimeSeriesWindow(data=data, dt=0.001, t_start=20000)
    planted = build_report([build_adjacency(mean_centered(w), DmdConfig())],
                           19000, 30000)
    planted_top = sorted(top_k(planted, 4))

    # top-k retrain on the full surrogate
    names = dataset["channel_names"]
    tensors = []
    for s in dataset["samples"]:
        tensors.extend(s.tensors)
    report = build_report(tensors, 19000, 30000, channel_names=names)
    k = int(np.ceil(0.18 * len(names)))
    keep = top_k(report, k)
    sub_samples = _slice_samples(dataset["samples"], names, keep, DmdConfig())
    sub_result = train(sub_samples, train_cfg)
    sub_metrics = evaluate_model(sub_result.params, sub_result.test_samples,
                                 sub_result.standardizer)
    drop = trained["metrics"].auroc - sub_metrics.auroc
    with criterion(8, f"feature selection (planted top-4 {planted_top}, "
                      f"top-{k} retrain drop {drop:+.4f})"):
        assert planted_top == [0, 1, 2, 3]
        assert drop <= 0.02


def test_c09_noise_monotonicity(dataset, trained, train_cfg):
    result = trained["result"]
    seq_cfg = SequenceConfig()
    augmented = make_noise_augmented(result.train_samples, (15, 25, 35),
                                     seq_cfg, seed=ACCEPT_SEED)
    aug_result = train(augmented + result.val_samples + result.test_samples,
                       train_cfg)
    points = noise_sweep(result.params, result.test_samples,
                         result.standardizer, seq_cfg, (5, 15, 25, 35, 85),
                         seed=ACCEPT_SEED,
                         augmented_params=aug_result.params,
                         augmented_standardizer=aug_result.standardizer)
    by_snr = {pt.snr_db: pt for pt in points}
    clean_5 = by_snr[5.0].clean_model.auroc
    clean_85 = by_snr[85.0].clean_model.auroc
    summary = ", ".join(
        f"{int(s)}dB clean {by_snr[s].clean_model.auroc:.4f}/aug "
        f"{by_snr[s].augmented_model.auroc:.4f}" for s in (15.0, 25.0, 35.0))
    with criterion(9, f"noise robustness (clean 5dB {clean_5:.4f} < 85dB "
                      f"{clean_85:.4f}; {summary})"):
        assert clean_5 < clean_85
        for snr in (15.0, 25.0, 35.0):
            assert (by_snr[snr].augmented_model.auroc
                    >= by_snr[snr].clean_model.auroc)


def test_c10_windowing_arithmetic(dataset):
    records = dataset["records"]
    proto = WindowProtocol()
    checked = 0
    with criterion(10, "windowing arithmetic and held-out disjointness"):
        for record in list(records.values())[:5]:
            out = window_dataset(record, proto, include_generalization=True)
            assert len(out.training) == 11
            ends = [s.t_end for s in out.training]
            assert ends == list(range(20000, 30001, 1000))
            last_spans = [(s.windows[-1].t_start, s.t_end) for s in out.training]
            assert last_spans == [(e - 999, e) for e in ends]
            gen_ends = {s.t_end for s in out.generalization}
            assert gen_ends
            assert not (set(ends) & gen_ends)
            assert all(e <= 19000 or e > 30000 for e in gen_ends)
            checked += 1
        assert checked == 5


def test_c11_pipeline_determinism(tmp_path):
    def run(base):
        base.mkdir()
        cfg = {
            "seed": 5,
            "paths": {"scenario_store": str(base / "sc"),
                      "adjacency_cache": str(base / "cache"),
                      "checkpoints": str(base / "ckpt"),
                      "reports": str(base / "rep")},
            "data": {"ternary_step": 20, "min_share": 20, "keep_1_in": 1,
                     "n_units": 3, "include_pq": False,
                     "duration_ms": 34000},
            "window": {"width_ms": 200, "stride_ms": 100, "l_seq": 3},
            "model": {"embed_dim": 8, "hidden_dim": 8},
            "train": {"epochs": 3, "early_stop_patience": 3,
                      "val_fraction": 0.15, "test_fraction": 0.25},
        }
        path = base / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command in ("generate", "train", "evaluate"):
            code = cli_main([command, "--config", str(path), "--deterministic"])
            assert code == 0
        artifacts = {}
        for sub in ("ckpt", "rep"):
            for f in sorted((base / sub).iterdir()):
                artifacts[f"{sub}/{f.name}"] = f.read_bytes()
        return artifacts

    with criterion(11, "deterministic rerun produces byte-identical "
                       "checkpoints and reports"):
        a = run(tmp_path / "runA")
        b = run(tmp_path / "runB")
        assert set(a) == set(b)
        for name in a:
            assert a[name] == b[name], f"artifact differs: {name}"


def test_c12_ternary_grid_count():
    count = len(ternary_grid())
    with criterion(12, f"default ternary grid has {count} mixes"):
        assert count == 4851


# --------------------------------------------------------------------------
# companions that reuse the expensive fixtures (not numbered criteria)


def test_generalization_band(dataset, trained):
    result = trained["result"]
    proto = WindowProtocol()
    test_ids = {s.scenario_id for s in result.test_samples}
    heldout = []
    for sid in sorted(test_ids):
        record = dataset["records"][sid]
        out = window_dataset(record, proto, include_generalization=True)
        heldout.extend(out.generalization)
    report = evaluate_model(result.params, heldout, result.standardizer)
    assert report.n_samples > 0
    assert report.accuracy >= trained["metrics"].accuracy - 0.15


def test_noise_sweep_sentinel_bit_identical(trained):
    result = trained["result"]
    seq_cfg = SequenceConfig()
    test_subset = result.test_samples[:40]
    points = noise_sweep(result.params, test_subset, result.standardizer,
                         seq_cfg, (None,), seed=0)
    plain = evaluate_model(result.params, test_subset, result.standardizer)
    assert points[0].clean_model.to_dict() == plain.to_dict()
