"""Five-layer dynamic adjacency tensors built from windowed mode decompositions.

Each measurement window yields an n x n x 5 stack of symmetric matrices:

  layer 1  mutual mode participation (products of mode-entry magnitudes)
  layer 2  coupling strength (cosine similarity of centered magnitude profiles)
  layer 3  phase alignment (circular-mean coherence and angle differences)
  layer 4  co-activation weighted by per-step growth or decay
  layer 5  co-activation weighted by total spectral energy over the window

Every layer is rescaled by its largest absolute entry so downstream graph
convolutions see uniformly scaled edges.

Tensors are built a stack at a time: `build_tensors` centers raw windows,
WINDOW_CHUNK at a time, into a reusable buffer and hands each chunk to
`build_adjacency` as a `WindowStack`; on more than one CPU a helper thread
builds every other chunk of large windows. The layer helpers take the stack's
leading axis. `build_adjacency` also takes a lone window, decomposes it as
a stack of one and gives its one tensor, so every tensor has the bits of
its own window's decomposition.
"""

from __future__ import annotations

import contextvars
import copy
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dmd import DmdConfig, TimeSeriesWindow, WindowStack, dmd
from .errors import ConfigError, DataError, DegenerateWindowError, NumericalFailureError

N_LAYERS = 5

_TENSOR_MAGIC = b"ADJT"
_TENSOR_HEADER = struct.Struct("<4sBiiq")


@dataclass(eq=False)
class AdjacencyTensor:
    """The normalized n x n x 5 layer stack for one window."""

    layers: np.ndarray
    n: int
    source_window: int = 0  # ms offset of the window's first sample

    def validate(self, tol: float = 1e-9) -> None:
        """Check symmetry, bounds, and normalization; raises DataError."""
        if self.layers.shape != (self.n, self.n, N_LAYERS):
            raise DataError(f"layer stack has shape {self.layers.shape}, expected "
                            f"({self.n}, {self.n}, {N_LAYERS})")
        if not np.isfinite(self.layers).all():
            raise DataError("adjacency tensor contains non-finite entries")
        for l in range(N_LAYERS):
            layer = self.layers[:, :, l]
            if np.abs(layer - layer.T).max() > tol:
                raise DataError(f"layer {l + 1} is not symmetric within {tol}")
            peak = np.abs(layer).max()
            if peak > 0 and abs(peak - 1.0) > tol:
                raise DataError(f"layer {l + 1} peak {peak} is not normalized to 1")


@dataclass(eq=False)
class SequenceSample:
    """Model input: L consecutive windows, their adjacency tensors, a label.

    Of the raw windows the model reads only the per-window channel means and
    the standardizer only the per-window channel sums and sums of squares.
    Each statistic is taken from the windows on first use and kept, so
    `drop_windows` can let the windows go: those cut by `window_dataset` are
    read-only views of their scenario's trajectory and would keep all of it
    alive. ``rows`` holds each window's sample count.
    """

    windows: list  # TimeSeriesWindow, oldest first; None once dropped
    tensors: list
    label: int
    scenario_id: str = ""
    t_end: int = 0
    rows: tuple = ()
    _sums: np.ndarray = field(default=None, repr=False)
    _squares: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.windows is not None:
            self.rows = tuple(w.n_samples for w in self.windows)

    def _window_data(self, what: str):
        if self.windows is None:
            raise DataError(f"sample {self.scenario_id}@{self.t_end} ms dropped its "
                            f"windows before its {what} were taken")
        return [w.data for w in self.windows]

    @property
    def channel_sums(self) -> np.ndarray:
        """Per-window channel sums (L x n)."""
        if self._sums is None:
            self._sums = np.stack([d.sum(axis=0)
                                   for d in self._window_data("channel sums")])
        return self._sums

    @property
    def channel_squares(self) -> np.ndarray:
        """Per-window channel sums of squares (L x n)."""
        if self._squares is None:
            self._squares = np.stack([(d * d).sum(axis=0)
                                      for d in self._window_data("sums of squares")])
        return self._squares

    @property
    def channel_means(self) -> np.ndarray:
        """Per-window channel means (L x n); the pooled input the model sees.

        Equal bit for bit to each window's ``data.mean(axis=0)``, which is
        the same sum divided by the same count.
        """
        return self.channel_sums / np.array(self.rows)[:, None]

    def drop_windows(self, squares: bool = False) -> None:
        """Take the channel sums (and, with ``squares``, the sums of squares)
        from the windows, then let the windows go."""
        self._sums = self.channel_sums
        if squares:
            self._squares = self.channel_squares
        self.windows = None


@dataclass(frozen=True)
class SequenceConfig:
    """How consecutive windows are carved out of a scenario.

    The decomposition sees each window with its per-channel temporal mean
    removed: large static offsets (nominal voltage, nominal frequency) would
    otherwise claim the dominant mode and drown the dynamic structure the
    layers encode. The raw window, offsets included, still feeds the model's
    feature path.
    """

    l_seq: int = 5
    window_ms: int = 1000
    stride_ms: int = 100
    dmd: DmdConfig = field(default_factory=DmdConfig)

    def __post_init__(self):
        if self.l_seq < 1:
            raise ConfigError(f"l_seq must be >= 1, got {self.l_seq}")
        if self.window_ms < 2:
            raise ConfigError(f"window_ms must be >= 2, got {self.window_ms}")
        if self.stride_ms < 0:
            raise ConfigError(f"stride_ms must be >= 0, got {self.stride_ms}")

    def window_ends(self, t_end: int) -> list:
        """End times of the l_seq windows, oldest first, finishing at t_end."""
        return [t_end - (self.l_seq - 1 - k) * self.stride_ms for k in range(self.l_seq)]

    def window_starts(self, t_end: int) -> list:
        """Start times of the same windows; a window's tensor is cached under
        its start."""
        return [end - self.window_ms + 1 for end in self.window_ends(t_end)]

    def history_ms(self) -> int:
        """Scenario span one sequence consumes."""
        return self.window_ms + (self.l_seq - 1) * self.stride_ms

    def adjacency_input(self, window: TimeSeriesWindow) -> TimeSeriesWindow:
        """A lone window as the decomposition consumes it (`mean_centered`);
        `build_tensors` applies the same rule to a list of raw windows."""
        return mean_centered(window)

    def cache_token(self) -> str:
        # "-c1-" (mean-centered decompositions) stays in the token so that
        # existing cache files keep matching.
        return (f"L{self.l_seq}-w{self.window_ms}-s{self.stride_ms}"
                f"-c1-{self.dmd.cache_token()}")


def _centered(data: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """What the decomposition sees of a window's samples, written into
    ``out`` when one is given.

    That is ``data`` less each channel's temporal mean, or, for a fully
    static window, ``data`` itself, so the decomposition still has its
    single constant mode to work with. A non-finite result (a NaN or
    overflowing mean) raises DegenerateWindowError, as a window of such
    samples would.
    """
    centered = np.subtract(data, _mean(data, axis=0), out=out)
    if not centered.any():
        if out is None:
            return data
        out[...] = data
        return out
    if not np.isfinite(centered).all():
        raise DegenerateWindowError("window contains non-finite samples")
    return centered


def mean_centered(window: TimeSeriesWindow) -> TimeSeriesWindow:
    """The window as the decomposition sees it (`_centered`): each
    channel's temporal mean removed, or the window itself if static."""
    centered = _centered(window.data)
    if centered is window.data:
        return window
    # a copy, not a new window: _centered has checked the samples
    out = copy.copy(window)
    out.data = centered
    return out


def _mean(x: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """``x.mean(axis)`` without its Python wrapper: the same sum divided by
    the same count."""
    return np.add.reduce(x, axis=axis, keepdims=keepdims) / x.shape[axis]


def _outer(a: np.ndarray) -> np.ndarray:
    """``np.outer(a, a)`` of each vector of a stack."""
    return a[..., :, None] * a[..., None, :]


def layer_participation(phi: np.ndarray) -> np.ndarray:
    """Mutual participation: M[i, j] = sum_k |phi_ik| * |phi_jk|."""
    return _participation(np.abs(phi))


def _participation(a: np.ndarray) -> np.ndarray:
    return a @ a.mT


# Keeps the coupling layer's cosine denominators away from zero.
COUPLING_EPS = 1e-8


def layer_coupling(phi: np.ndarray, eps: float = COUPLING_EPS) -> np.ndarray:
    """Cosine similarity of zero-mean magnitude profiles, in [-1, 1].

    The denominators carry an epsilon so channels with flat magnitude
    profiles (e.g. a single retained mode) map to 0 instead of dividing
    by zero.
    """
    return _coupling(np.abs(phi), eps)


def _coupling(v: np.ndarray, eps: float) -> np.ndarray:
    centered = v - _mean(v, axis=-1, keepdims=True)
    # np.linalg.norm(centered, axis=-1), as it computes a real vector norm
    norms = np.sqrt(np.add.reduce(centered * centered, axis=-1))
    return (centered @ centered.mT) / _outer(norms + eps)


def layer_phase(phi: np.ndarray) -> np.ndarray:
    """Phase alignment: M[i, j] = kappa_i * kappa_j * cos(theta_i - theta_j).

    theta_i and kappa_i are the direction and length of the circular mean of
    channel i's mode angles; a zero mode entry contributes angle 0. The
    product expands to outer(c, c) + outer(s, s) with c_i = kappa_i cos
    theta_i and s_i = kappa_i sin theta_i, which is what is computed here.
    """
    ang = np.arctan2(phi.imag, phi.real)  # np.angle(phi)
    return _outer(_mean(np.cos(ang), axis=-1)) + _outer(_mean(np.sin(ang), axis=-1))


# Per-step growth below this is numerical dust (eigenvalue rounding), not
# dynamics; snapping it to zero keeps static windows from normalizing noise
# into full-scale entries.
GROWTH_DEAD_ZONE = 1e-12


def layer_growth(phi: np.ndarray, lam: np.ndarray, rho_floor: float = 1e-12) -> np.ndarray:
    """Co-activation weighted by per-step growth g_k = log |lambda_k|.

    Moduli are floored to keep nilpotent modes from injecting -inf, and
    growth within GROWTH_DEAD_ZONE of zero is treated as exactly neutral.
    """
    g = np.log(np.maximum(np.abs(lam), rho_floor))
    g[np.abs(g) < GROWTH_DEAD_ZONE] = 0.0
    return np.real((phi * g[..., None, :]) @ phi.conj().mT)


def energy_factor(rho: float, length: int) -> float:
    """Total energy of a mode with per-step modulus rho over ``length`` steps.

    Equals sum_{l=0}^{length-1} rho^(2l), evaluated through expm1 so moduli
    near 1 keep full precision; the rho = 1 case is exactly ``length``.
    """
    if rho < 0:
        raise ValueError(f"mode modulus must be >= 0, got {rho}")
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    if rho == 0.0:
        return 1.0
    if rho == 1.0:
        return float(length)
    try:
        return math.expm1(2.0 * length * math.log(rho)) / math.expm1(2.0 * math.log(rho))
    except OverflowError:
        # the true value exceeds float64 range, exactly as the direct sum would
        return math.inf


# Energy weights above this already dominate a layer by >1e280; capping keeps
# the matrix representable when a transient artifact yields |lambda| >> 1.
ENERGY_WEIGHT_CAP = 1e290


def layer_energy(phi: np.ndarray, lam: np.ndarray, length: int) -> np.ndarray:
    """Co-activation weighted by windowed spectral energy.

    Persistent or amplifying modes dominate; strongly decaying ones are
    de-emphasized. Positive weights make the result positive semidefinite.
    Weights are clipped at ENERGY_WEIGHT_CAP so a strongly amplifying mode
    cannot push the layer out of float64 range.
    """
    # abs() of Python numbers rounds as numpy's scalar abs does; the
    # vectorized complex np.abs differs in about a third of the moduli
    e = np.minimum(
        [energy_factor(abs(l), length) for l in lam.ravel().tolist()],
        ENERGY_WEIGHT_CAP,
    ).reshape(lam.shape)
    return np.real((phi * e[..., None, :]) @ phi.conj().mT)


def _scale_to_unit_peak(layers: np.ndarray) -> None:
    """Divide each layer of a finite stack (n x n x d, or a stack of them)
    by its peak |entry|, in place; zero layers stay zero."""
    # each layer's entries copied into one row: a max is exact, and numpy
    # takes it along a row several times faster than across the d-wide last
    # axis; a NaN or infinite entry makes its layer's peak NaN or infinite
    rows = layers.reshape(layers.shape[:-3] + (-1, layers.shape[-1])).mT.copy()
    peak = np.abs(rows, out=rows).max(axis=-1)
    if not np.isfinite(peak).all():
        raise NumericalFailureError("layer stack contains non-finite entries")
    layers /= np.where(peak > 0.0, peak, 1.0)[..., None, None, :]


def normalize_layers(raw: np.ndarray, source_window: int = 0) -> AdjacencyTensor:
    """Divide each layer by its maximum absolute entry; zero layers stay zero."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[0] != raw.shape[1]:
        raise DataError(f"expected an n x n x d stack, got shape {raw.shape}")
    out = raw.copy()
    _scale_to_unit_peak(out)
    return AdjacencyTensor(layers=out, n=raw.shape[0], source_window=source_window)


def build_adjacency(window, cfg: DmdConfig):
    """Decompose a window and assemble its normalized five-layer tensor.

    ``window`` is a TimeSeriesWindow, which gives its AdjacencyTensor, or a
    WindowStack, which gives one tensor per window in order; a lone window
    is a stack of one. Each window's layers are written into a C-contiguous
    n x n x 5 slot, the layout ``np.stack`` of the five matrices gives: the
    model's layer mixing rounds differently on any other layout. Layers 1
    and 2 share one ``|phi|``.
    """
    stack = WindowStack.of(window) if isinstance(window, TimeSeriesWindow) else window
    layers = _stack_layers(stack, cfg)
    n = layers.shape[1]
    tensors = [AdjacencyTensor(layers=layers[k], n=n, source_window=t)
               for k, t in enumerate(stack.t_starts)]
    return tensors if stack is window else tensors[0]


def _stack_layers(stack: WindowStack, cfg: DmdConfig) -> np.ndarray:
    """The normalized S x n x n x 5 layers of a stack's windows."""
    n = stack.data.shape[2]
    layers = np.empty((len(stack), n, n, N_LAYERS))
    for result in dmd(stack, cfg):
        phi, lam, slot = result.modes, result.eigenvalues, result.index
        mag = np.abs(phi)
        layers[slot, ..., 0] = _participation(mag)
        layers[slot, ..., 1] = _coupling(mag, COUPLING_EPS)
        layers[slot, ..., 2] = layer_phase(phi)
        layers[slot, ..., 3] = layer_growth(phi, lam)
        layers[slot, ..., 4] = layer_energy(phi, lam, result.window_len)
    _scale_to_unit_peak(layers)
    return layers


# Windows `build_tensors` centers into a buffer and decomposes as one
# stack. At paper dims (1000 x 20 windows) a serial build of a scenario
# peaked at 0.80x its trajectory with 8 (tracemalloc), 1.10x with 16 and
# 1.96x with 32, for about the same speed. With the helper thread's chunk
# in flight it peaks at 1.07x with 8; 4 keeps 0.80x but builds about 15 %
# slower on two CPUs and 3 % slower on one
WINDOW_CHUNK = 8

# Windows of fewer samples x channels are built without the helper thread:
# their decomposition is mostly Python work, which holds the GIL. With one
# BLAS thread on 2 CPUs the helper built 200 x 6 windows 1.4x slower and
# 200 x 12 windows 1.25x slower, but 200 x 20 in 0.93x, 1000 x 6 in 0.70x
# and 1000 x 20 (the paper's windows) in 0.61x the serial time
HELPER_MIN_ENTRIES = 4000


def build_tensors(windows, cfg: DmdConfig) -> list:
    """Adjacency tensors of raw windows of one shape, in order.

    Each window is centered by `_centered`, the rule `mean_centered`
    follows, into a C-ordered buffer of WINDOW_CHUNK windows, and each
    chunk is one `build_adjacency` stack. A tensor has the bits of
    ``build_adjacency(mean_centered(window))`` for a window with contiguous
    rows, as every window the program cuts has; the decomposition of other
    layouts rounds differently.

    When there is more than one chunk, the windows have at least
    HELPER_MIN_ENTRIES samples x channels and the process may run on more
    than one CPU, one helper thread builds every other chunk, into its own
    buffer, while the caller builds the one before it; numpy releases the
    GIL inside LAPACK and BLAS, so two decompositions run at once. The
    helper runs in a copy of the caller's context, so numpy's error state
    holds there too, and it ends with the call.

    When a chunk fails, at centering or later, its windows are built again
    one at a time, in order, so the first that fails on its own raises its
    own error; of two failing chunks, the earlier one's error is raised,
    after the helper has finished.
    """
    pair = (len(windows) > WINDOW_CHUNK and windows[0].data.size >= HELPER_MIN_ENTRIES
            and _usable_cpus() > 1)
    step = 2 * WINDOW_CHUNK if pair else WINDOW_CHUNK
    tensors = []
    bufs = None
    with ThreadPoolExecutor(max_workers=1) as helper:
        for lo in range(0, len(windows), step):
            mine = windows[lo:lo + WINDOW_CHUNK]
            theirs = windows[lo + WINDOW_CHUNK:lo + step]
            if bufs is None:
                bufs = [np.empty((len(mine),) + mine[0].data.shape)
                        for _ in range(2 if pair else 1)]
            later = (helper.submit(contextvars.copy_context().run,
                                   _chunk_tensors, theirs, cfg, bufs[1])
                     if theirs else None)
            # a failure here leaves the block, which waits for the helper
            tensors.extend(_chunk_tensors(mine, cfg, bufs[0]))
            if later is not None:
                tensors.extend(later.result())
    return tensors


def _chunk_tensors(chunk, cfg: DmdConfig, buf: np.ndarray) -> list:
    """The tensors of at most WINDOW_CHUNK windows, centered into ``buf``
    and built as one stack (see `build_tensors`)."""
    data = buf[:len(chunk)]
    try:
        for out, w in zip(data, chunk):
            _centered(w.data, out)
        return build_adjacency(WindowStack(data=data, t_starts=tuple(w.t_start for w in chunk)),
                               cfg)
    except (DataError, NumericalFailureError):
        for w in chunk:
            build_adjacency(mean_centered(w), cfg)
        raise


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def tensor_to_bytes(tensor: AdjacencyTensor) -> bytes:
    """Serialize: fixed header (n, d, t_start) + layer-major row-major float64 LE."""
    header = _TENSOR_HEADER.pack(
        _TENSOR_MAGIC, 1, tensor.n, tensor.layers.shape[2], int(tensor.source_window)
    )
    payload = np.ascontiguousarray(
        np.moveaxis(tensor.layers, 2, 0), dtype="<f8"
    ).tobytes()
    return header + payload


def tensor_from_bytes(buf: bytes, offset: int = 0):
    """Inverse of tensor_to_bytes; returns (tensor, next_offset)."""
    if len(buf) - offset < _TENSOR_HEADER.size:
        raise DataError("truncated adjacency tensor record")
    magic, version, n, d, t_start = _TENSOR_HEADER.unpack_from(buf, offset)
    if magic != _TENSOR_MAGIC:
        raise DataError(f"bad adjacency tensor magic {magic!r}")
    if version != 1:
        raise DataError(f"unsupported adjacency tensor version {version}")
    start = offset + _TENSOR_HEADER.size
    count = n * n * d
    end = start + count * 8
    if len(buf) < end:
        raise DataError("truncated adjacency tensor payload")
    flat = np.frombuffer(buf, dtype="<f8", count=count, offset=start)
    layers = np.moveaxis(flat.reshape(d, n, n), 0, 2).copy()
    return AdjacencyTensor(layers=layers, n=n, source_window=int(t_start)), end
