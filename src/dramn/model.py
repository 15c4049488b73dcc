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
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalFailureError

CHECKPOINT_MAGIC = b"DRMC"
CHECKPOINT_VERSION = 1

# Flattened storage order of every trainable array; also the checkpoint layout.
PARAM_ORDER = (
    "conv_scale", "conv_shift", "proj_w", "proj_b",
    "alpha",
    "w_xi", "w_hi", "b_i",
    "w_xf", "w_hf", "b_f",
    "w_xo", "w_ho", "b_o",
    "w_xg", "w_hg", "b_g",
    "readout_w", "readout_b",
)

GCN_PARAM_ORDER = (
    "conv_scale", "conv_shift", "proj_w", "proj_b",
    "alpha", "w_g", "b_g", "readout_w", "readout_b",
)


@dataclass(frozen=True)
class ModelDims:
    """Shape contract: channels, window samples, embed/hidden widths, layers, steps."""

    n: int
    t: int
    f: int = 64
    h: int = 64
    d: int = 5
    l_seq: int = 5

    def __post_init__(self):
        for name in ("n", "t", "f", "h", "d", "l_seq"):
            if getattr(self, name) < 1:
                raise DataError(f"dimension {name} must be >= 1, got {getattr(self, name)}")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in ("n", "t", "f", "h", "d", "l_seq")}


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
    w_xi: np.ndarray        # (F, H)
    w_hi: np.ndarray        # (H, H)
    b_i: np.ndarray         # (H,)
    w_xf: np.ndarray
    w_hf: np.ndarray
    b_f: np.ndarray
    w_xo: np.ndarray
    w_ho: np.ndarray
    b_o: np.ndarray
    w_xg: np.ndarray
    w_hg: np.ndarray
    b_g: np.ndarray
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
    gradient flow; the layer-mixing scalars start uniform at 1/d.
    """
    def gates(u, f, h):
        return dict(
            w_xi=u(f, f, h), w_hi=u(h, h, h), b_i=np.zeros(h),
            w_xf=u(f, f, h), w_hf=u(h, h, h), b_f=np.ones(h),
            w_xo=u(f, f, h), w_ho=u(h, h, h), b_o=np.zeros(h),
            w_xg=u(f, f, h), w_hg=u(h, h, h), b_g=np.zeros(h),
        )

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
        i = _sigmoid(xt @ params.w_xi + ht @ params.w_hi + params.b_i)
        f = _sigmoid(xt @ params.w_xf + ht @ params.w_hf + params.b_f)
        o = _sigmoid(xt @ params.w_xo + ht @ params.w_ho + params.b_o)
        g = np.tanh(xt @ params.w_xg + ht @ params.w_hg + params.b_g)
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


def save_checkpoint(params, path, seed: int = 0, meta: dict = None) -> None:
    """Write a bit-exact checkpoint: JSON header + flat float64 LE arrays + CRC.

    Arrays follow the family's ORDER (PARAM_ORDER, or GCN_PARAM_ORDER for the
    baseline); the header records dims, seed, the format version, and the
    family's KIND.
    """
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in params.tree().values()
    )
    header = {
        "format": "checkpoint",
        "version": CHECKPOINT_VERSION,
        "kind": params.KIND,
        "dims": params.dims.as_dict(),
        "seed": int(seed),
        "crc32": zlib.crc32(payload),
    }
    if meta:
        header["meta"] = meta
    head_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(head_bytes)))
        fh.write(head_bytes)
        fh.write(payload)


def load_checkpoint(path):
    """Read a checkpoint; returns (params, header dict)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    try:
        (head_len,) = struct.unpack_from("<I", blob, 4)
        header = json.loads(blob[8:8 + head_len].decode())
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not an object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {header.get('version')}")
    payload = blob[8 + head_len:]
    if zlib.crc32(payload) != header.get("crc32"):
        raise DataError(f"{path}: checkpoint payload checksum mismatch")
    dims = ModelDims(**header["dims"])
    # A checkpoint's kind is the name of the variant whose init builds its
    # family. Imported here because training imports this module.
    from .training import VARIANTS

    kind = header.get("kind", "dramn")
    if kind not in VARIANTS:
        raise DataError(f"{path}: unknown checkpoint kind {kind!r}")
    template = VARIANTS[kind].init(dims, 0)
    arrays = {}
    offset = 0
    for name, arr in template.tree().items():
        arrays[name] = (
            np.frombuffer(payload, dtype="<f8", count=arr.size, offset=offset)
            .reshape(arr.shape)
            .astype(np.float64)
        )
        offset += arr.size * 8
    if offset != len(payload):
        raise DataError(f"{path}: checkpoint payload length mismatch")
    return type(template)(dims=dims, **arrays), header
