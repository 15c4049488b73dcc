"""Metrics, model scoring, noise sweeps, and ablations.

The positive class is "unstable" (label 1). AUROC is computed by the
rank-sum method with midrank tie handling, which equals the probability
that a random unstable sample scores above a random stable one (ties count
half).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjacency import SequenceConfig, SequenceSample, build_adjacency
from .datagen import inject_noise
from .errors import DataError, UndefinedMetricError
from .model import ModelDims
from .training import TrainConfig, get_variant, stack_inputs, train


@dataclass(eq=False)
class MetricsReport:
    """Threshold metrics plus the confusion counts they derive from."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    specificity: float
    tp: int
    fp: int
    fn: int
    tn: int
    threshold: float
    n_samples: int
    auroc: float = None
    undefined: tuple = ()

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "f1": self.f1, "specificity": self.specificity,
            "auroc": self.auroc,
            "confusion": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
            "threshold": self.threshold, "n_samples": self.n_samples,
            "undefined": list(self.undefined),
        }


def confusion_metrics(probs, labels, threshold: float = 0.5) -> MetricsReport:
    """Threshold the scores and derive all ratio metrics from the confusion counts.

    Ratios with a zero denominator are reported as 0 and flagged by name in
    ``undefined``.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise DataError(f"{probs.shape[0]} scores for {labels.shape[0]} labels")
    if probs.size < 1:
        raise DataError("cannot compute metrics without samples")
    preds = probs >= threshold
    pos = labels == 1
    tp = int(np.sum(preds & pos))
    fp = int(np.sum(preds & ~pos))
    fn = int(np.sum(~preds & pos))
    tn = int(np.sum(~preds & ~pos))
    undefined = []

    def ratio(num, den, name):
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    specificity = ratio(tn, tn + fp, "specificity")
    f1 = ratio(2.0 * precision * recall, precision + recall, "f1")
    return MetricsReport(
        accuracy=(tp + tn) / probs.size,
        precision=precision, recall=recall, f1=f1, specificity=specificity,
        tp=tp, fp=fp, fn=fn, tn=tn,
        threshold=threshold, n_samples=int(probs.size),
        undefined=tuple(undefined),
    )


def auroc(probs, labels) -> float:
    """Rank-based AUROC with midrank tie handling (exact, no binning)."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(probs.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    _, inverse, counts = np.unique(probs, return_inverse=True, return_counts=True)
    last_rank = np.cumsum(counts)
    midranks = last_rank - (counts - 1) / 2.0
    ranks = midranks[inverse]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate_scores(probs, labels, threshold: float = 0.5) -> MetricsReport:
    """Confusion metrics plus AUROC when both classes are present."""
    report = confusion_metrics(probs, labels, threshold)
    try:
        report.auroc = auroc(probs, labels)
    except UndefinedMetricError:
        report.undefined = report.undefined + ("auroc",)
    return report


# Samples scored per forward pass; bounds the memory the trace holds.
PREDICT_CHUNK = 512


def predict_proba(params, samples, standardizer=None, variant: str = "dramn") -> np.ndarray:
    """Model scores for a list of sequence samples.

    Raises DataError when the samples' step, channel or layer count differs
    from what the model was built for.
    """
    if not samples:
        raise DataError("no samples to score")
    spec = get_variant(variant)
    out = np.empty(len(samples))
    for start in range(0, len(samples), PREDICT_CHUNK):
        part = samples[start:start + PREDICT_CHUNK]
        means, layers, _ = stack_inputs(part, last_only=spec.last_only)
        _check_sample_dims(means, layers, params.dims)
        if standardizer is not None:
            means = standardizer.transform(means)
        out[start:start + len(part)] = spec.predict(means, layers, params)
    return out


def _check_sample_dims(means, layers, dims: ModelDims):
    want = (dims.l_seq, dims.n, dims.n, dims.d)
    if means.shape[1:] != want[:2] or layers.shape[1:] != want:
        raise DataError(
            f"samples of {means.shape[1]} steps x {means.shape[2]} channels with "
            f"layer stacks {layers.shape[2:]} do not fit a model of {dims.l_seq} "
            f"steps x {dims.n} channels x {dims.d} layers"
        )


def evaluate_model(params, samples, standardizer=None, variant: str = "dramn",
                   threshold: float = 0.5) -> MetricsReport:
    probs = predict_proba(params, samples, standardizer, variant)
    labels = np.array([s.label for s in samples])
    return evaluate_scores(probs, labels, threshold)


def _noisy_copy(sample: SequenceSample, snr_db: float, seq_cfg: SequenceConfig,
                seed: int) -> SequenceSample:
    """Inject noise into every raw window and rebuild its adjacency tensor."""
    windows = [inject_noise(w, snr_db, seed=seed + 31 * k)
               for k, w in enumerate(sample.windows)]
    tensors = [build_adjacency(seq_cfg.adjacency_input(w), seq_cfg.dmd)
               for w in windows]
    return SequenceSample(
        windows=windows, tensors=tensors, label=sample.label,
        scenario_id=sample.scenario_id, t_end=sample.t_end,
    )


@dataclass(eq=False)
class NoiseSweepPoint:
    snr_db: float
    clean_model: MetricsReport
    augmented_model: MetricsReport = None


def noise_sweep(params, samples, standardizer, seq_cfg: SequenceConfig,
                snr_list, seed: int = 0, augmented_params=None,
                augmented_standardizer=None, variant: str = "dramn",
                threshold: float = 0.5):
    """Evaluate on noise-corrupted test inputs at each SNR.

    Adjacency tensors are recomputed from the noisy windows, matching a
    deployment where the decomposition sees the corrupted measurements. A
    None or infinite SNR entry is the disabled sentinel and reuses the
    samples untouched. When a noise-augmented-trained model is provided it
    is scored on the same corrupted inputs.
    """
    points = []
    for s_idx, snr in enumerate(snr_list):
        if snr is None or np.isinf(snr):
            noisy = samples
        else:
            base = int(np.random.SeedSequence([int(seed), s_idx]).generate_state(1)[0])
            noisy = [_noisy_copy(s, snr, seq_cfg, seed=base + 1009 * i)
                     for i, s in enumerate(samples)]
        point = NoiseSweepPoint(
            snr_db=np.inf if snr is None else float(snr),
            clean_model=evaluate_model(params, noisy, standardizer, variant, threshold),
        )
        if augmented_params is not None:
            point.augmented_model = evaluate_model(
                augmented_params, noisy,
                augmented_standardizer if augmented_standardizer is not None else standardizer,
                variant, threshold,
            )
        points.append(point)
    return points


def make_noise_augmented(samples, snr_values, seq_cfg: SequenceConfig,
                         seed: int = 0):
    """Training-set augmentation: clean samples plus corrupted copies.

    Each sample is kept and joined by one copy corrupted at an SNR drawn
    from ``snr_values``, so the model sees the clean signal structure and
    its noisy counterparts side by side.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xAA61]))
    snr_values = list(snr_values)
    out = list(samples)
    for i, sample in enumerate(samples):
        snr = snr_values[int(rng.integers(len(snr_values)))]
        out.append(_noisy_copy(sample, snr, seq_cfg, seed=int(seed) + 7919 * i))
    return out


@dataclass(eq=False)
class AblationEntry:
    variant: str
    metrics: MetricsReport
    non_convergent: bool
    epochs_run: int


def ablation_run(dataset, variants, cfg: TrainConfig, embed_dim: int = 64,
                 hidden_dim: int = 64, threshold: float = 0.5):
    """Train each variant under identical seeds and splits; collect metrics.

    A variant is flagged non-convergent when no epoch improved on the first
    epoch's validation loss and its test AUROC stays below 0.6.
    """
    entries = []
    for variant in variants:
        result = train(dataset, cfg, embed_dim=embed_dim, hidden_dim=hidden_dim,
                       variant=variant)
        metrics = evaluate_model(result.params, result.test_samples,
                                 result.standardizer, variant, threshold)
        history = result.history
        improved = any(h.val_loss < history[0].val_loss for h in history[1:])
        auroc_value = metrics.auroc if metrics.auroc is not None else 0.0
        entries.append(AblationEntry(
            variant=variant,
            metrics=metrics,
            non_convergent=(not improved) and auroc_value < 0.6,
            epochs_run=len(history),
        ))
    return entries
