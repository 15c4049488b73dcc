import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dramn.adjacency import AdjacencyTensor, SequenceSample
from dramn.dmd import TimeSeriesWindow
from dramn.errors import ConfigError, DataError, UndefinedMetricError
from dramn.evaluation import (
    auroc,
    confusion_metrics,
    evaluate_scores,
    predict_proba,
)
from dramn.model import ModelDims, init_params
from dramn.training import VARIANTS


def pairwise_auroc(probs, labels):
    """Independent oracle: exact pairwise counting with half-credit ties."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestConfusionMetrics:
    def test_hand_counts(self):
        probs = np.array([0.9, 0.8, 0.6, 0.2, 0.1, 0.3, 0.4, 0.45, 0.2, 0.05])
        labels = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        rep = confusion_metrics(probs, labels)
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (2, 1, 1, 6)
        assert rep.accuracy == pytest.approx(0.8)
        assert rep.precision == pytest.approx(2 / 3)
        assert rep.recall == pytest.approx(2 / 3)
        assert rep.specificity == pytest.approx(6 / 7)

    def test_perfect(self):
        rep = confusion_metrics([0.9, 0.1], [1, 0])
        for name in ("accuracy", "precision", "recall", "f1", "specificity"):
            assert getattr(rep, name) == 1.0
        assert not rep.undefined

    def test_all_negative_predictions_flagged(self):
        rep = confusion_metrics([0.1, 0.2, 0.3], [1, 0, 1])
        assert rep.recall == 0.0
        assert "precision" in rep.undefined

    def test_threshold_zero_all_positive(self):
        rep = confusion_metrics([0.5, 0.0, 0.7], [1, 0, 0], threshold=0.0)
        assert rep.recall == 1.0
        assert rep.specificity == 0.0

    def test_counts_reproduce_ratios(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(size=50)
        labels = rng.integers(0, 2, 50)
        rep = confusion_metrics(probs, labels)
        assert rep.accuracy == (rep.tp + rep.tn) / rep.n_samples
        if rep.tp + rep.fp:
            assert rep.precision == rep.tp / (rep.tp + rep.fp)
        if rep.tp + rep.fn:
            assert rep.recall == rep.tp / (rep.tp + rep.fn)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion_metrics([0.5], [1, 0])


class TestAuroc:
    def test_hand_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            probs = np.round(rng.uniform(size=n), 2)  # induce ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auroc(probs, labels) == pytest.approx(
                pairwise_auroc(probs, labels), abs=1e-12)

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=4, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, raw):
        # rounding keeps distinct scores far enough apart that the sigmoid
        # stays strictly increasing in float arithmetic
        probs = np.round(np.asarray(raw), 3)
        labels = (np.arange(probs.size) % 2)
        base = auroc(probs, labels)
        squashed = auroc(1.0 / (1.0 + np.exp(-5.0 * probs)), labels)
        assert squashed == pytest.approx(base, abs=1e-12)


class TestEvaluateScores:
    def test_attaches_auroc(self):
        rep = evaluate_scores(np.array([0.9, 0.1]), np.array([1, 0]))
        assert rep.auroc == 1.0

    def test_single_class_flagged(self):
        rep = evaluate_scores(np.array([0.9, 0.8]), np.array([1, 1]))
        assert rep.auroc is None
        assert "auroc" in rep.undefined


def random_samples(rng, n, l_seq, d=5, count=3):
    """Sequence samples of random windows and symmetric layer stacks."""
    samples = []
    for k in range(count):
        windows = [TimeSeriesWindow(data=rng.standard_normal((20, n)), dt=0.001)
                   for _ in range(l_seq)]
        raw = rng.standard_normal((l_seq, n, n, d))
        tensors = [AdjacencyTensor(layers=0.5 * (r + r.transpose(1, 0, 2)), n=n)
                   for r in raw]
        samples.append(SequenceSample(windows=windows, tensors=tensors, label=k % 2))
    return samples


class TestPredictProba:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_rejects_other_channel_and_step_counts(self, variant):
        spec = VARIANTS[variant]
        dims = ModelDims(n=20, f=8, h=8, d=5, l_seq=1 if spec.last_only else 5)
        samples = random_samples(np.random.default_rng(3), n=4, l_seq=3)
        with pytest.raises(DataError):
            predict_proba(spec.init(dims, 3), samples, variant=variant)

    def test_rejects_other_layer_count(self):
        dims = ModelDims(n=4, f=8, h=8, d=5, l_seq=3)
        samples = random_samples(np.random.default_rng(4), n=4, l_seq=3, d=3)
        with pytest.raises(DataError):
            predict_proba(init_params(dims, 4), samples)

    def test_unknown_variant_rejected(self):
        dims = ModelDims(n=4, f=8, h=8, d=5, l_seq=3)
        samples = random_samples(np.random.default_rng(5), n=4, l_seq=3)
        with pytest.raises(ConfigError):
            predict_proba(init_params(dims, 5), samples, variant="transformer")
