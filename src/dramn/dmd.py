"""Rank-truncated dynamic mode decomposition of measurement windows.

A window of multi-channel samples is factored into spatial modes and
discrete-time eigenvalues: two time-shifted snapshot matrices are formed,
the first is compressed with a truncated SVD, and the eigendecomposition
of the compressed one-step operator gives per-mode growth rates and
oscillation frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class DmdConfig:
    """Decomposition settings: truncation rank and singular-value cutoff."""

    rank: int = 5
    svd_rel_tol: float = 1e-10

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if not 0.0 < self.svd_rel_tol < 1.0:
            raise ConfigError(f"svd_rel_tol must be in (0, 1), got {self.svd_rel_tol}")

    def cache_token(self) -> str:
        """Stable string identifying this configuration in cache keys."""
        # "-d0" (no delay embedding) stays so that existing cache files match.
        return f"r{self.rank}-tol{self.svd_rel_tol!r}-d0"


@dataclass(eq=False)
class DmdResult:
    """Retained modes, their eigenvalues, and the effective rank."""

    modes: np.ndarray       # complex, n x r_eff
    eigenvalues: np.ndarray  # complex, r_eff
    r_eff: int
    window_len: int


def build_snapshots(window: TimeSeriesWindow):
    """Form the time-shifted snapshot pair (X1, X2), each n x (T-1).

    Column k of X1 is sample k as a channel vector; column k of X2 is the
    sample one step later.
    """
    if window.n_samples < 2:
        raise DegenerateWindowError("need at least 2 samples to form snapshots")
    x = window.data.T
    return x[:, :-1], x[:, 1:]


def truncated_svd(x1: np.ndarray, rank: int, rel_tol: float):
    """Thin SVD of X1 truncated to ``rank`` and a relative singular-value cutoff.

    Returns (U_r, S_r, V_r) with orthonormal columns in U_r and V_r and S_r
    positive descending. The retained count is
    min(rank, #{sigma_i > rel_tol * sigma_max}); the cutoff keeps near-null
    directions out of the inverse applied downstream.
    """
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError(f"rel_tol must be in (0, 1), got {rel_tol}")
    x1 = np.asarray(x1, dtype=np.float64)
    try:
        u, s, vt = np.linalg.svd(x1, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or not s[0] > 0.0:
        raise ZeroMatrixError("all-zero snapshot matrix: no mode exists")
    keep = min(rank, int(np.count_nonzero(s > rel_tol * s[0])))
    return u[:, :keep], s[:keep], vt[:keep].T


def reduced_operator(u_r, s_r, v_r, x2):
    """Project the one-step operator onto the retained subspace."""
    return (u_r.T @ x2 @ v_r) / s_r


def eig_small(a_tilde: np.ndarray):
    """Eigendecomposition of the reduced operator, sorted for reproducibility.

    Eigenvalues are ordered by descending modulus, ties broken by descending
    real part then descending imaginary part. Each pair must satisfy
    ||A w - lambda w|| <= 1e-8 ||A||_F or a numerical failure is raised.
    """
    a_tilde = np.asarray(a_tilde)
    if a_tilde.ndim != 2 or a_tilde.shape[0] != a_tilde.shape[1]:
        raise ValueError(f"reduced operator must be square, got shape {a_tilde.shape}")
    if a_tilde.shape[0] > MAX_SMALL_EIG:
        raise ValueError(f"reduced operator too large for dense solve: {a_tilde.shape[0]}")
    try:
        lam, w = np.linalg.eig(a_tilde)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition did not converge: {exc}") from exc
    scale = np.linalg.norm(a_tilde)
    residuals = np.linalg.norm(a_tilde @ w - w * lam, axis=0)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > EIG_RESIDUAL_RTOL * max(scale, np.finfo(float).tiny):
        raise NumericalFailureError(
            f"eigen residual {worst:.3e} exceeds {EIG_RESIDUAL_RTOL:.0e} * ||A|| = "
            f"{EIG_RESIDUAL_RTOL * scale:.3e}"
        )
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    return w[:, order], lam[order]


def dmd_modes(x2, v_r, s_r, w):
    """Lift the reduced eigenvectors back to full-state modes."""
    return ((x2 @ v_r) / s_r) @ w


def dmd(window: TimeSeriesWindow, cfg: DmdConfig) -> DmdResult:
    """Full decomposition of one window under the given configuration."""
    x1, x2 = build_snapshots(window)
    u_r, s_r, v_r = truncated_svd(x1, cfg.rank, cfg.svd_rel_tol)
    a_tilde = reduced_operator(u_r, s_r, v_r, x2)
    w, lam = eig_small(a_tilde)
    phi = dmd_modes(x2, v_r, s_r, w)
    if not (np.isfinite(phi).all() and np.isfinite(lam).all()):
        raise NumericalFailureError("decomposition produced non-finite modes or eigenvalues")
    return DmdResult(
        modes=phi,
        eigenvalues=lam,
        r_eff=int(lam.size),
        window_len=window.n_samples,
    )
