"""Supervised training: exact reverse-mode gradients, AdamW, early stopping.

Gradients are derived by hand from the forward trace rather than by an
autodiff framework, so the finite-difference check in the test suite is the
authority on their correctness. The loss is the mean absolute error between
the predicted instability probability and the binary label.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, NumericalFailureError
from .model import (
    GcnParams,
    ModelDims,
    ModelParams,
    forward_trace_batch,
    gcn_forward_trace_batch,
    init_gcn_params,
    init_params,
    zero_gradients,
)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and split settings."""

    lr: float = 1e-3
    weight_decay: float = 1e-2
    epochs: int = 100
    batch_size: int = 32
    early_stop_patience: int = 10
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0 or not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("val/test fractions must lie in (0, 1)")
        for name in ("lr", "weight_decay"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.early_stop_patience < 0:
            raise ConfigError("early_stop_patience must be >= 0")


# Lower bound on a channel's std, so a constant channel standardizes to zero.
STD_FLOOR = 1e-9


@dataclass(eq=False)
class Standardizer:
    """Per-channel z-score transform fitted on training data only.

    `fit` pools the samples' per-window channel sums and sums of squares, so
    it needs no raw window once those are taken.
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, samples) -> "Standardizer":
        """Accumulate channel statistics over the windows of ``samples``:
        samples in order, each sample's windows oldest first."""
        count = 0
        total = None
        total_sq = None
        for s in samples:
            for sums, squares in zip(s.channel_sums, s.channel_squares):
                if total is None:
                    total, total_sq = sums.copy(), squares.copy()
                else:
                    total += sums
                    total_sq += squares
            count += sum(s.rows)
        if count == 0:
            raise DataError("cannot fit a standardizer on zero windows")
        mean = total / count
        var = np.maximum(total_sq / count - mean * mean, 0.0)
        return cls(mean=mean, std=np.sqrt(var))

    def _safe_std(self) -> np.ndarray:
        return np.maximum(self.std, STD_FLOOR)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Standardize along the trailing channel axis."""
        return (x - self.mean) / self._safe_std()


def mae_batch(p: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(p) - np.asarray(y))))


def backward_batch(means: np.ndarray, layers, params: ModelParams, y: np.ndarray,
                   identity_graph: bool = False):
    """Loss and exact gradients of the batch-mean MAE for the recurrent model.

    Returns (per-sample losses, gradient tree). The layer-mixing gradient
    collects contributions from both graph-convolution pathways (input and
    hidden); in identity-graph mode it is zero and the adjacency stack is
    ignored. The gate-weight contraction of each step runs on a worker
    thread (numpy releases the GIL inside einsum) while the reverse
    recursion moves on to the step before it.
    """
    trace = forward_trace_batch(means, layers, params, identity_graph=identity_graph)
    b, l, n = trace.means.shape
    f_dim, h_dim = params.dims.f, params.dims.h
    y = np.asarray(y, dtype=np.float64)
    losses = np.abs(trace.p - y)

    grads = zero_gradients(params)
    dp = np.sign(trace.p - y) / b
    ds = dp * trace.p * (1.0 - trace.p)
    grads["readout_b"][...] = ds.sum()
    grads["readout_w"][...] = np.einsum("b,bh->h", ds, trace.h_last.mean(axis=1))

    dh = ds[:, None, None] * params.readout_w / n
    dc_carry = np.zeros((b, n, h_dim))
    dxhat = np.zeros_like(trace.xhat)
    dgeff = None if identity_graph else np.zeros_like(trace.geff)
    weight_steps = []

    with ThreadPoolExecutor(max_workers=1) as worker:
        for t in range(l - 1, -1, -1):
            gates = trace.gates[t]
            tc = trace.tanh_c[t]
            i, f, o, g = gates["i"], gates["f"], gates["o"], gates["g"]
            do = dh * tc
            dc = dc_carry + dh * o * (1.0 - tc * tc)
            dpre = (
                dc * g * i * (1.0 - i),
                dc * trace.c_prev[t] * f * (1.0 - f),
                do * o * (1.0 - o),
                dc * i * (1.0 - g * g),
            )
            dc_carry = dc * f

            xt, ht = trace.xt[t], trace.ht[t]
            # All eight gate-weight gradients of this step in one contraction
            # over the (sample, channel) rows: rows [x | h] by columns
            # [i | f | o | g].
            weight_steps.append(worker.submit(
                np.einsum, "kf,kh->fh",
                np.concatenate((xt, ht), axis=-1).reshape(b * n, f_dim + h_dim),
                np.concatenate(dpre, axis=-1).reshape(b * n, 4 * h_dim),
            ))
            # One product per gate, summed in i, f, o, g order: a single
            # 4H-wide contraction would round differently.
            dxt = np.zeros_like(xt)
            dht = np.zeros_like(ht)
            for k, d in enumerate(dpre):
                grads["b"][k] += d.sum(axis=(0, 1))
                dxt += d @ params.w_x[k].T
                dht += d @ params.w_h[k].T

            if identity_graph:
                dxhat[:, t] = dxt
                dh = dht
            else:
                gt = trace.geff[:, t]
                dgeff[:, t] = (
                    np.einsum("bnf,bmf->bnm", dxt,
                              np.ascontiguousarray(trace.xhat[:, t]))
                    + np.einsum("bnh,bmh->bnm", dht, trace.h_prev[t])
                )
                gt_t = np.swapaxes(gt, 1, 2)
                dxhat[:, t] = gt_t @ dxt
                dh = gt_t @ dht

    # Summed in the order the steps were visited, last step first.
    for step in weight_steps:
        dw = step.result().reshape(f_dim + h_dim, 4, h_dim).swapaxes(0, 1)
        grads["w_x"] += dw[:, :f_dim]
        grads["w_h"] += dw[:, f_dim:]

    if not identity_graph:
        grads["alpha"][...] = np.einsum("blnm,blnmd->d", dgeff, trace.layers)

    dpooled = dxhat @ params.proj_w
    grads["proj_w"][...] = np.einsum("blnf,bln->f", dxhat, trace.pooled)
    grads["proj_b"][...] = dxhat.sum(axis=(0, 1, 2))
    grads["conv_scale"][...] = (dpooled * trace.means).sum()
    grads["conv_shift"][...] = dpooled.sum()

    _check_grads_finite(grads)
    return losses, grads


def gcn_backward_batch(means: np.ndarray, layers: np.ndarray, params: GcnParams,
                       y: np.ndarray):
    """Loss and exact gradients for the single-shot graph-convolution baseline."""
    tr = gcn_forward_trace_batch(means, layers, params)
    b, n = tr["last"].shape
    y = np.asarray(y, dtype=np.float64)
    losses = np.abs(tr["p"] - y)

    grads = zero_gradients(params)
    dp = np.sign(tr["p"] - y) / b
    ds = dp * tr["p"] * (1.0 - tr["p"])
    grads["readout_b"][...] = ds.sum()
    grads["readout_w"][...] = np.einsum("b,bnh->h", ds, tr["z"]) / n
    dz = ds[:, None, None] * params.readout_w / n
    dpre = dz * (1.0 - tr["z"] ** 2)
    grads["w_g"][...] = np.einsum("bnf,bnh->fh", tr["xt"], dpre)
    grads["b_g"][...] = dpre.sum(axis=(0, 1))
    dxt = dpre @ params.w_g.T
    dgeff = np.einsum("bnf,bmf->bnm", dxt, tr["xhat"])
    grads["alpha"][...] = np.einsum("bnm,bnmd->d", dgeff, tr["g_layers"])
    dxhat = np.swapaxes(tr["geff"], 1, 2) @ dxt
    dpooled = dxhat @ params.proj_w
    grads["proj_w"][...] = np.einsum("bnf,bn->f", dxhat, tr["pooled"])
    grads["proj_b"][...] = dxhat.sum(axis=(0, 1))
    grads["conv_scale"][...] = (dpooled * tr["last"]).sum()
    grads["conv_shift"][...] = dpooled.sum()

    _check_grads_finite(grads)
    return losses, grads


def _check_grads_finite(grads: dict) -> None:
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericalFailureError(f"non-finite gradient in {name}")


@dataclass(eq=False)
class AdamWState:
    """First/second moment accumulators and the step counter."""

    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, params) -> "AdamWState":
        return cls(m=zero_gradients(params), v=zero_gradients(params), t=0)


def adamw_step(params, grads: dict, state: AdamWState, cfg: TrainConfig):
    """One decoupled-weight-decay Adam update, in place.

    Moments are bias-corrected; the decay term multiplies the parameter
    directly and is independent of the gradient path.
    """
    state.t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, p in params.tree().items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + eps)
        p -= cfg.lr * update
        if cfg.weight_decay:
            p -= cfg.lr * cfg.weight_decay * p
    return params, state


def split_ids(ids, cfg: TrainConfig):
    """Scenario-level train/val/test assignment of scenario ids.

    Proportions are rounded to whole scenarios; the assignment is a pure
    function of the set of ids and ``cfg.seed``. Returns three sets of ids.
    """
    ids = sorted(set(ids))
    if not ids:
        raise DataError("cannot split an empty dataset")
    n_test = int(round(len(ids) * cfg.test_fraction))
    n_val = int(round((len(ids) - n_test) * cfg.val_fraction))
    n_train = len(ids) - n_test - n_val
    if min(n_train, n_val, n_test) < 1:
        raise DataError(
            f"{len(ids)} scenarios cannot fill three non-empty splits at "
            f"test={cfg.test_fraction}, val={cfg.val_fraction}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x5917]))
    order = rng.permutation(len(ids))
    test_ids = {ids[k] for k in order[:n_test]}
    val_ids = {ids[k] for k in order[n_test:n_test + n_val]}
    train_ids = {ids[k] for k in order[n_test + n_val:]}
    return train_ids, val_ids, test_ids


def split_dataset(dataset, cfg: TrainConfig):
    """Scenario-level train/val/test split of samples, by `split_ids`.

    Every sample of one scenario lands in the same partition so overlapping
    windows cannot leak across splits; each partition keeps the dataset's
    order.
    """
    train_ids, val_ids, test_ids = split_ids((s.scenario_id for s in dataset), cfg)
    train = [s for s in dataset if s.scenario_id in train_ids]
    val = [s for s in dataset if s.scenario_id in val_ids]
    test = [s for s in dataset if s.scenario_id in test_ids]
    return train, val, test


@dataclass(eq=False)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    wall_ms: float


@dataclass(eq=False)
class TrainResult:
    params: object
    history: list
    standardizer: Standardizer
    train_samples: list
    val_samples: list
    test_samples: list


def stack_inputs(samples, standardizer: Standardizer = None, last_only: bool = False):
    """Stack samples into (means, layers, labels) arrays for the batched path.

    ``means`` is (B, L, n) and ``layers`` (B, L, n, n, d), both contiguous;
    with ``last_only`` each sample contributes its newest window only (L=1).
    """
    steps = slice(-1, None) if last_only else slice(None)
    means = np.stack([s.channel_means[steps] for s in samples])
    layers = np.stack([t.layers for s in samples for t in s.tensors[steps]])
    layers = layers.reshape(means.shape[:2] + layers.shape[1:])
    if standardizer is not None:
        means = standardizer.transform(means)
    labels = np.array([s.label for s in samples], dtype=np.float64)
    return means, layers, labels


@dataclass(frozen=True)
class Variant:
    """One model variant: the inputs it reads and the functions that run it.

    ``init(dims, seed)`` returns fresh parameters, ``predict(means, layers,
    params)`` the probabilities, and ``gradients(means, layers, params, y)``
    the per-sample losses and the gradient tree. Each callable looks its
    function up by module global when it is called, so a wrapper installed
    on this module (a profiler, a tracer) sees every call.
    """

    last_only: bool  # reads only the newest window of each sequence
    init: Callable
    predict: Callable
    gradients: Callable


_RECURRENT = Variant(
    last_only=False,
    init=lambda dims, seed: init_params(dims, seed),
    predict=lambda m, g, p: forward_trace_batch(m, g, p).p,
    gradients=lambda m, g, p, y: backward_batch(m, g, p, y),
)

# The full model and its ablations: one window (lseq1), no graph (lstm), and
# no recurrence (gcn). The gcn and dramn rows also build the two parameter
# families, and their names are the checkpoint kinds.
VARIANTS = {
    "dramn": _RECURRENT,
    "lseq1": replace(_RECURRENT, last_only=True),
    "lstm": replace(
        _RECURRENT,
        predict=lambda m, g, p: forward_trace_batch(m, None, p, identity_graph=True).p,
        gradients=lambda m, g, p, y: backward_batch(m, None, p, y, identity_graph=True),
    ),
    "gcn": Variant(
        last_only=True,
        init=lambda dims, seed: init_gcn_params(dims, seed),
        predict=lambda m, g, p: gcn_forward_trace_batch(m, g, p)["p"],
        gradients=lambda m, g, p, y: gcn_backward_batch(m, g, p, y),
    ),
}


def get_variant(name: str) -> Variant:
    """The VARIANTS row for ``name``; ConfigError for an unknown name."""
    if name not in VARIANTS:
        raise ConfigError(f"unknown model variant {name!r}; "
                          f"expected one of {', '.join(VARIANTS)}")
    return VARIANTS[name]


# Samples scored per forward pass: the default training batch, so scoring
# holds no more of a trace than one training step does.
PREDICT_CHUNK = 32


def score_samples(params, samples, standardizer: Standardizer, spec: Variant) -> np.ndarray:
    """The probabilities of ``spec``'s model for ``samples``, PREDICT_CHUNK
    samples per forward pass.

    A sample's probability does not depend on the other samples of its
    pass, so the chunking changes no bit. Raises DataError when the samples'
    step, channel or layer count differs from what the model was built for.
    """
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


def train(dataset, cfg: TrainConfig, embed_dim: int = 64, hidden_dim: int = 64,
          variant: str = "dramn") -> TrainResult:
    """Fit a model variant with shuffled mini-batches and early stopping.

    Each mini-batch is stacked from its own samples when it is drawn, and
    the validation loss is scored `PREDICT_CHUNK` samples at a time, so the
    arrays held at once are those of one batch, whatever the split sizes.
    Keeps the parameters from the best-validation epoch. Stops once the
    validation loss has not improved for `early_stop_patience` epochs
    (patience 0 stops after the first non-improving epoch). Strictly
    sequential, so identical inputs give bit-identical parameters.
    """
    spec = get_variant(variant)
    train_s, val_s, test_s = split_dataset(dataset, cfg)
    std = Standardizer.fit(train_s)
    y_va = np.array([s.label for s in val_s], dtype=np.float64)

    m0, g0, _ = stack_inputs(train_s[:1], last_only=spec.last_only)
    _, l_seq, n = m0.shape
    dims = ModelDims(n=n, f=embed_dim, h=hidden_dim, d=g0.shape[-1], l_seq=l_seq)
    params = spec.init(dims, cfg.seed)

    state = AdamWState.init(params)
    best = params.copy()
    best_val = np.inf
    since_best = 0
    history = []
    n_train = len(train_s)

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x3A1, epoch]))
        order = rng.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, cfg.batch_size):
            batch = [train_s[i] for i in order[start:start + cfg.batch_size]]
            means, layers, labels = stack_inputs(batch, std, last_only=spec.last_only)
            try:
                losses, grads = spec.gradients(means, layers, params, labels)
            except NumericalFailureError as exc:
                raise NumericalFailureError(
                    f"epoch {epoch}, batch at sample {start}: {exc}"
                ) from exc
            adamw_step(params, grads, state, cfg)
            loss_sum += float(losses.sum())
        val_loss = mae_batch(score_samples(params, val_s, std, spec), y_va)
        wall_ms = (time.perf_counter() - t0) * 1e3
        history.append(EpochStats(epoch=epoch, train_loss=loss_sum / n_train,
                                  val_loss=val_loss, wall_ms=wall_ms))
        if val_loss < best_val:
            best_val = val_loss
            best = params.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= max(cfg.early_stop_patience, 1):
                break

    return TrainResult(
        params=best, history=history, standardizer=std,
        train_samples=train_s, val_samples=val_s, test_samples=test_s,
    )
