"""Rank-truncated dynamic mode decomposition of measurement windows.

A window of multi-channel samples is factored into spatial modes and
discrete-time eigenvalues: two time-shifted snapshot matrices are formed,
the first is compressed with a truncated SVD, and the eigendecomposition
of the compressed one-step operator gives per-mode growth rates and
oscillation frequencies.

The decomposition works on a `WindowStack`, windows of one shape on a
leading axis; a lone window is ``WindowStack.of(window)``, a stack of one.
Every helper takes that leading axis, and each window's numbers are those
of its own decomposition bit for bit: a stacked LAPACK or BLAS call factors
each matrix as the single call would. Windows that retain fewer than
``rank`` singular values are decomposed in groups of equal retained count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DegenerateWindowError,
    NumericalFailureError,
    ZeroMatrixError,
)

# Largest eigenproblem accepted by eig_small; the truncation rank keeps the
# reduced operator far below this in practice.
MAX_SMALL_EIG = 32

# Per-pair eigen residual allowance relative to the operator norm.
EIG_RESIDUAL_RTOL = 1e-8


@dataclass(eq=False)
class TimeSeriesWindow:
    """An n-channel, T-sample measurement slice with fixed sampling interval.

    ``data`` is laid out samples-by-channels (T x n). ``t_start`` is the
    millisecond offset of the first sample inside the source scenario.
    """

    data: np.ndarray
    dt: float
    channel_names: tuple = ()
    t_start: int = 0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise DegenerateWindowError(
                f"window data must be samples x channels, got shape {data.shape}"
            )
        if data.shape[0] < 2:
            raise DegenerateWindowError(
                f"window needs at least 2 samples, got {data.shape[0]}"
            )
        if data.shape[1] < 1:
            raise DegenerateWindowError("window needs at least 1 channel")
        if not np.isfinite(data).all():
            raise DegenerateWindowError("window contains non-finite samples")
        if not self.dt > 0:
            raise DegenerateWindowError(f"sampling interval must be positive, got {self.dt}")
        self.data = data
        if not self.channel_names:
            self.channel_names = tuple(f"ch{i}" for i in range(data.shape[1]))
        else:
            self.channel_names = tuple(self.channel_names)
            if len(self.channel_names) != data.shape[1]:
                raise DegenerateWindowError(
                    f"{len(self.channel_names)} channel names for {data.shape[1]} channels"
                )

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]


@dataclass(eq=False)
class WindowStack:
    """Windows of one shape on a leading axis.

    ``data`` is S x T x n (windows x samples x channels) and ``t_starts``
    holds each window's millisecond offset. Indexing with an array of
    positions gives the stack of those windows.
    """

    data: np.ndarray
    t_starts: tuple

    @classmethod
    def of(cls, window: TimeSeriesWindow) -> "WindowStack":
        """A lone window as a stack of one."""
        return cls(data=window.data[None], t_starts=(window.t_start,))

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, index) -> "WindowStack":
        return WindowStack(self.data[index], tuple(self.t_starts[k] for k in index))

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DmdConfig:
    """Decomposition settings: truncation rank and singular-value cutoff."""

    rank: int = 5
    svd_rel_tol: float = 1e-10

    def __post_init__(self):
        if not 1 <= self.rank <= MAX_SMALL_EIG:
            raise ConfigError(f"rank must be in [1, {MAX_SMALL_EIG}], got {self.rank}")
        if not 0.0 < self.svd_rel_tol < 1.0:
            raise ConfigError(f"svd_rel_tol must be in (0, 1), got {self.svd_rel_tol}")

    def cache_token(self) -> str:
        """Stable string identifying this configuration in cache keys."""
        # "-d0" (no delay embedding) stays so that existing cache files match.
        return f"r{self.rank}-tol{self.svd_rel_tol!r}-d0"


@dataclass(eq=False)
class DmdResult:
    """Retained modes and eigenvalues of a group of a stack's windows.

    ``index`` selects the group's windows from the stack: a slice when the
    group is the whole stack, else their positions. ``modes`` (S' x n x
    r_eff, complex unless every eigenvalue of a window is real) and
    ``eigenvalues`` (S' x r_eff) carry the group's leading axis.
    """

    modes: np.ndarray
    eigenvalues: np.ndarray
    r_eff: int
    window_len: int
    index: object


def build_snapshots(window):
    """Form the time-shifted snapshot pair (X1, X2), each n x (T-1).

    Column k of X1 is sample k as a channel vector; column k of X2 is the
    sample one step later. A stack gives a pair per window.
    """
    if window.n_samples < 2:
        raise DegenerateWindowError("need at least 2 samples to form snapshots")
    x = window.data.mT
    return x[..., :-1], x[..., 1:]


def truncated_svd(x1: np.ndarray, rank: int, rel_tol: float) -> list:
    """Thin SVD of each matrix of a stack (S x n x m), truncated to ``rank``
    and a relative singular-value cutoff.

    A matrix keeps min(rank, #{sigma_i > rel_tol * sigma_max}) values; the
    cutoff keeps near-null directions out of the inverse applied downstream.
    Returns one (index, U_r, S_r, V_r) group per retained count, in
    ascending order: ``index`` selects the group's matrices (a slice when
    the group is the whole stack), U_r and V_r have orthonormal columns and
    S_r is positive descending, each with the group's leading axis.
    """
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError(f"rel_tol must be in (0, 1), got {rel_tol}")
    x1 = np.asarray(x1, dtype=np.float64)
    if x1.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got shape {x1.shape}")
    try:
        u, s, vt = np.linalg.svd(x1, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    # a handful of values per matrix: counted in Python, not in numpy calls
    keep = []
    for values in s.tolist():
        top = values[0] if values else 0.0
        if not math.isfinite(top):
            raise NumericalFailureError("SVD produced non-finite singular values")
        if not top > 0.0:
            raise ZeroMatrixError("all-zero snapshot matrix: no mode exists")
        keep.append(min(rank, sum(v > rel_tol * top for v in values)))
    counts = sorted(set(keep))
    groups = []
    for k in counts:
        index = slice(None) if len(counts) == 1 else np.flatnonzero(np.equal(keep, k))
        groups.append((index, u[index][..., :k], s[index][..., :k],
                       vt[index][..., :k, :].mT))
    return groups


def reduced_operator(u_r, s_r, v_r, x2):
    """Project the one-step operator onto the retained subspace."""
    return (u_r.mT @ x2 @ v_r) / s_r[..., None, :]


def eig_small(a_tilde: np.ndarray):
    """Eigendecomposition of each reduced operator of a stack (S x r x r),
    sorted for reproducibility.

    Eigenvalues are ordered by descending modulus, ties broken by descending
    real part then descending imaginary part. Each pair must satisfy
    ||A w - lambda w|| <= 1e-8 ||A||_F or a numerical failure is raised.
    Returns (w, lam), S x r x r and S x r. The stack is solved as a whole
    and, as `np.linalg.eig` does, comes back real only if every eigenvalue
    of the stack is real.
    """
    a = np.asarray(a_tilde)
    if a.ndim != 3 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a stack of square operators, got shape {a.shape}")
    if a.shape[-1] > MAX_SMALL_EIG:
        raise ValueError(f"reduced operator too large for dense solve: {a.shape[-1]}")
    try:
        lam, w = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition did not converge: {exc}") from exc
    # both norms as np.linalg.norm takes them, without its wrapper: ||A||_F
    # is the dot product of the flat matrix, a column's norm the root of
    # the sum of its conj(x) * x
    flat = a.reshape(len(a), -1)
    scales = np.sqrt(np.vecdot(flat, flat)).tolist()
    gap = a @ w - w * lam[:, None, :]
    residuals = np.sqrt(np.add.reduce((gap.conj() * gap).real, axis=-2)).max(axis=-1)
    tiny = np.finfo(float).tiny
    for worst, scale in zip(residuals.tolist(), scales):
        if worst > EIG_RESIDUAL_RTOL * max(scale, tiny):
            raise NumericalFailureError(
                f"eigen residual {worst:.3e} exceeds {EIG_RESIDUAL_RTOL:.0e} * ||A|| = "
                f"{EIG_RESIDUAL_RTOL * scale:.3e}"
            )
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)), axis=-1)
    rows, rows3, cols = _gather_grid(*lam.shape)
    return w[rows3, cols, order[:, None, :]], lam[rows, order]


@lru_cache(maxsize=256)
def _gather_grid(count: int, size: int):
    """Index arrays that, with an S x r ``order``, reorder the rows of an
    S x r stack (``lam[rows, order]``) and the columns of an S x r x r one
    (``w[rows3, cols, order[:, None, :]]``). Cached because building them
    costs a lone window more than the gather; shared, so read-only."""
    rows = np.arange(count)[:, None]
    grid = rows, rows[:, :, None], np.arange(size)[:, None]
    for index in grid:
        index.flags.writeable = False
    return grid


def dmd_modes(x2, v_r, s_r, w):
    """Lift the reduced eigenvectors back to full-state modes."""
    return ((x2 @ v_r) / s_r[..., None, :]) @ w


def _by_eigen_dtype(w, lam):
    """Split a stacked eigensolution as `np.linalg.eig` types each window's
    own: (part, w, lam) per part, real where all of a window's eigenvalues
    are. ``part`` is a mask over the stack, or None for all of it."""
    if lam.dtype.kind != "c":
        return [(None, w, lam)]
    real = [not any(parts) for parts in lam.imag.tolist()]
    if not any(real):
        return [(None, w, lam)]
    if all(real):
        return [(None, np.ascontiguousarray(w.real), np.ascontiguousarray(lam.real))]
    real = np.array(real)
    return [(real, np.ascontiguousarray(w[real].real), np.ascontiguousarray(lam[real].real)),
            (~real, w[~real], lam[~real])]


def dmd(stack: WindowStack, cfg: DmdConfig) -> list:
    """Full decomposition of every window of a stack.

    The windows are decomposed in groups that retain the same count and
    whose eigenvalues are all real, or not; one `DmdResult` per group, in
    that order. A lone window is decomposed as ``WindowStack.of(window)``.
    """
    x1, x2_all = build_snapshots(stack)
    results = []
    for index, u_r, s_r, v_r in truncated_svd(x1, cfg.rank, cfg.svd_rel_tol):
        x2 = x2_all if isinstance(index, slice) else build_snapshots(stack[index])[1]
        w, lam = eig_small(reduced_operator(u_r, s_r, v_r, x2))
        for part, w_part, lam_part in _by_eigen_dtype(w, lam):
            if part is None:
                phi, where = dmd_modes(x2, v_r, s_r, w_part), index
            else:
                phi = dmd_modes(x2[part], v_r[part], s_r[part], w_part)
                where = np.arange(len(stack))[index][part]
            if not (np.isfinite(phi).all() and np.isfinite(lam_part).all()):
                raise NumericalFailureError(
                    "decomposition produced non-finite modes or eigenvalues")
            results.append(DmdResult(modes=phi, eigenvalues=lam_part,
                                     r_eff=lam_part.shape[-1],
                                     window_len=stack.n_samples, index=where))
    return results
