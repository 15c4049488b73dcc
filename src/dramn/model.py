"""The recurrent adjacency memory cell and its probability readout.

Each sequence step compresses a raw window to per-channel embeddings, mixes
the five adjacency layers with trainable scalars into one effective graph,
graph-convolves both the embeddings and the previous hidden state, and runs
an LSTM-style gate update. The final hidden state is pooled over channels
into a single instability probability.

The hot path is the batched trace (`forward_trace_batch`), which records
every intermediate needed for exact reverse-mode differentiation. Because
the temporal compressor is affine in the window samples, the trace consumes
per-window channel means instead of full windows.

The four gates are stored gate-major, in i, f, o, g order: ``w_x`` is
(4, F, H), ``w_h`` is (4, H, H) and ``b`` is (4, H), so gate k reads
``w_x[k]``, ``w_h[k]`` and ``b[k]``, and one step takes two stacked matmuls.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NumericalFailureError

# Flattened storage order of every trainable array; also the checkpoint layout.
PARAM_ORDER = (
    "conv_scale", "conv_shift", "proj_w", "proj_b",
    "alpha", "w_x", "w_h", "b",
    "readout_w", "readout_b",
)

GCN_PARAM_ORDER = (
    "conv_scale", "conv_shift", "proj_w", "proj_b",
    "alpha", "w_g", "b_g", "readout_w", "readout_b",
)


@dataclass(frozen=True)
class ModelDims:
    """Shape contract: channels, embed/hidden widths, layers, steps."""

    n: int
    f: int = 64
    h: int = 64
    d: int = 5
    l_seq: int = 5

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if value < 1:
                raise DataError(f"dimension {name} must be >= 1, got {value}")

    def as_dict(self) -> dict:
        return asdict(self)


class _ParamTree:
    """Storage shared by the parameter families.

    ``ORDER`` is the flattened storage order of the trainable arrays, also
    the checkpoint layout; ``KIND`` names the family in checkpoint headers.
    """

    def tree(self) -> dict:
        """Name -> array view in ORDER; arrays are the live buffers."""
        return {name: getattr(self, name) for name in self.ORDER}

    def copy(self):
        return type(self)(dims=self.dims, **{k: v.copy() for k, v in self.tree().items()})


@dataclass(eq=False)
class ModelParams(_ParamTree):
    """All trainable arrays of the cell, compressor, layer mixing, and readout."""

    ORDER = PARAM_ORDER
    KIND = "dramn"

    dims: ModelDims
    conv_scale: np.ndarray  # ()
    conv_shift: np.ndarray  # ()
    proj_w: np.ndarray      # (F,)
    proj_b: np.ndarray      # (F,)
    alpha: np.ndarray       # (d,)
    w_x: np.ndarray         # (4, F, H), gates i, f, o, g
    w_h: np.ndarray         # (4, H, H)
    b: np.ndarray           # (4, H)
    readout_w: np.ndarray   # (H,)
    readout_b: np.ndarray   # ()


@dataclass(eq=False)
class GcnParams(_ParamTree):
    """Single-shot graph-convolution baseline: compress, convolve once, read out."""

    ORDER = GCN_PARAM_ORDER
    KIND = "gcn"

    dims: ModelDims
    conv_scale: np.ndarray
    conv_shift: np.ndarray
    proj_w: np.ndarray
    proj_b: np.ndarray
    alpha: np.ndarray
    w_g: np.ndarray         # (F, H)
    b_g: np.ndarray         # (H,)
    readout_w: np.ndarray
    readout_b: np.ndarray


def _sigmoid(x):
    """Logistic function without overflow: exp only ever sees -|x|.

    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, in one pass.
    """
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _init_family(cls, dims: ModelDims, seed: int, salt: int, core):
    """Seeded init of the arrays both families share, around a family's core.

    Weights are uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), drawn in the
    order proj_w, proj_b, the draws of ``core(u, f, h)``, readout_w. Each
    family salts the seed, so equal seeds give unrelated weights.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), salt]))

    def u(fan_in, *shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    f, h, d = dims.f, dims.h, dims.d
    return cls(
        dims=dims,
        conv_scale=np.ones(()),
        conv_shift=np.zeros(()),
        proj_w=u(1, f),
        proj_b=0.5 * u(1, f),
        alpha=np.full(d, 1.0 / d),
        **core(u, f, h),
        readout_w=u(h, h),
        readout_b=np.zeros(()),
    )


def init_params(dims: ModelDims, seed: int) -> ModelParams:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init.

    The compressor's pointwise scale starts at exactly 1 (identity
    passthrough): drawing it randomly can throttle the whole forward pass
    since every downstream activation is proportional to it. The projection
    bias starts nonzero so node embeddings have a constant component even
    for zero-mean windows; without it the graph convolution multiplies
    zeros and the adjacency input is invisible until the bias drifts away
    from the origin. The forget-gate bias starts at 1.0 to ease early
    gradient flow; the layer-mixing scalars start uniform at 1/d. The gate
    weights are drawn gate by gate (i, f, o, g), input weight before hidden
    weight, and then stacked.
    """
    def gates(u, f, h):
        draws = [(u(f, f, h), u(h, h, h)) for _ in range(4)]
        b = np.zeros((4, h))
        b[1] = 1.0
        return dict(w_x=np.stack([wx for wx, _ in draws]),
                    w_h=np.stack([wh for _, wh in draws]), b=b)

    return _init_family(ModelParams, dims, seed, 0x0D0A, gates)


def init_gcn_params(dims: ModelDims, seed: int) -> GcnParams:
    return _init_family(GcnParams, dims, seed, 0x6C17,
                        lambda u, f, h: dict(w_g=u(f, f, h), b_g=np.zeros(h)))


def zero_gradients(params) -> dict:
    """A gradient tree of zeros congruent with the parameter tree."""
    return {k: np.zeros_like(v) for k, v in params.tree().items()}


def compress_means(means: np.ndarray, params) -> np.ndarray:
    """Embed pooled channel values: scale/shift then project 1 -> F.

    ``means`` has shape (..., n); the result appends an F axis.
    """
    pooled = params.conv_scale * means + params.conv_shift
    return pooled[..., None] * params.proj_w + params.proj_b


@dataclass(eq=False)
class ForwardTrace:
    """Everything the reverse pass needs, batched over samples."""

    means: np.ndarray        # (B, L, n)
    layers: np.ndarray       # (B, L, n, n, d) or None in identity-graph mode
    pooled: np.ndarray       # (B, L, n)
    xhat: np.ndarray         # (B, L, n, F)
    geff: np.ndarray         # (B, L, n, n) or None
    xt: list                 # per step (B, n, F)
    ht: list                 # per step (B, n, H)
    h_prev: list             # per step (B, n, H)
    c_prev: list             # per step (B, n, H)
    gates: list              # per step dict of i/f/o/g arrays (B, n, H)
    tanh_c: list             # per step (B, n, H)
    h_last: np.ndarray       # (B, n, H)
    score: np.ndarray        # (B,)
    p: np.ndarray            # (B,)


def forward_trace_batch(means: np.ndarray, layers, params: ModelParams,
                        identity_graph: bool = False) -> ForwardTrace:
    """Batched forward pass recording intermediates.

    ``means``: (B, L, n) per-window channel means. ``layers``: (B, L, n, n, d)
    adjacency stacks, ignored when ``identity_graph`` is set (the ablation
    that reduces the cell to a per-channel LSTM).
    """
    means = np.asarray(means, dtype=np.float64)
    b, l, n = means.shape
    pooled = params.conv_scale * means + params.conv_shift
    xhat = compress_means(means, params)

    geff = None
    if not identity_graph:
        layers = np.asarray(layers, dtype=np.float64)
        geff = layers @ params.alpha  # (B, L, n, n)

    h = np.zeros((b, n, params.dims.h))
    c = np.zeros((b, n, params.dims.h))
    xt_l, ht_l, hp_l, cp_l, gates_l, tanh_l = [], [], [], [], [], []
    for t in range(l):
        # Contiguous: the backward einsums over a strided step view run ~4x slower.
        xh = np.ascontiguousarray(xhat[:, t])
        if identity_graph:
            xt, ht = xh, h
        else:
            gt = geff[:, t]
            xt = gt @ xh
            ht = gt @ h
        z = xt[:, None] @ params.w_x + ht[:, None] @ params.w_h + params.b[:, None]
        i, f, o = (_sigmoid(z[:, k]) for k in range(3))
        g = np.tanh(z[:, 3])
        xt_l.append(xt)
        ht_l.append(ht)
        hp_l.append(h)
        cp_l.append(c)
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates_l.append({"i": i, "f": f, "o": o, "g": g})
        tanh_l.append(tc)

    score = (h @ params.readout_w).mean(axis=1) + params.readout_b
    p = _sigmoid(score)
    if not np.isfinite(p).all():
        raise NumericalFailureError("forward pass produced non-finite probabilities")
    return ForwardTrace(
        means=means, layers=None if identity_graph else layers, pooled=pooled,
        xhat=xhat, geff=geff, xt=xt_l, ht=ht_l, h_prev=hp_l, c_prev=cp_l,
        gates=gates_l, tanh_c=tanh_l, h_last=h, score=score, p=p,
    )


def gcn_forward_trace_batch(means: np.ndarray, layers: np.ndarray, params: GcnParams):
    """Baseline forward: embed the last window, convolve once, pool, read out."""
    means = np.asarray(means, dtype=np.float64)
    last = means[:, -1, :]
    pooled = params.conv_scale * last + params.conv_shift
    xhat = compress_means(last, params)
    layers = np.asarray(layers, dtype=np.float64)
    geff = layers[:, -1] @ params.alpha
    xt = geff @ xhat
    z = np.tanh(xt @ params.w_g + params.b_g)
    score = (z @ params.readout_w).mean(axis=1) + params.readout_b
    p = _sigmoid(score)
    if not np.isfinite(p).all():
        raise NumericalFailureError("forward pass produced non-finite probabilities")
    return {
        "last": last, "pooled": pooled, "xhat": xhat, "geff": geff,
        "g_layers": layers[:, -1], "xt": xt, "z": z, "score": score, "p": p,
    }
