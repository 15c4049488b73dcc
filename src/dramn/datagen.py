"""Labeled synthetic scenarios over a ternary generation-mix grid.

The physical simulator is replaced by a coupled second-order oscillator
network (a ring of generator-like units) whose damping, anchor stiffness,
and coupling vary smoothly with the (sg, gfm, gfl) mix percentages. The
shaping is chosen so a contiguous, converter-heavy region of the mix
simplex loses damping and becomes unstable, while synchronous-heavy mixes
stay well damped. Because the dynamics are linear with a known state
matrix, every stability label can be checked against the exact spectrum.

Measured channels emulate per-unit bus voltage (offset 1.0 p.u.), frequency
(offset 60 Hz), and per-unit P/Q deviations. Two disturbance events are
supported: a sustained +10% load step and a 50 ms short-circuit that clamps
the faulted units' voltage readings before restoring them.

`window_dataset` cuts every window of a scenario's samples first and asks
its tensor source for all of their tensors in one call, so the tensors a
scenario lacks are built a `WINDOW_CHUNK` stack at a time
(`adjacency.build_tensors`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .adjacency import SequenceConfig, SequenceSample, build_tensors
from .dmd import TimeSeriesWindow
from .errors import (
    ConfigError,
    DataError,
    DegenerateWindowError,
    InsufficientHistoryError,
    LabelingError,
)

EVENTS = ("load_increase", "short_circuit", "unperturbed")

# Labeling thresholds: voltage band (p.u.), frequency band (Hz), damping floor.
VOLTAGE_BAND = (0.95, 1.05)
FREQUENCY_BAND = (59.80, 60.20)
DAMPING_FLOOR = 0.03
SETTLE_GUARD_MS = 5000

_OSC_IMAG_TOL = 1e-9

# Samples per block of the modal noise filter's scan (`_first_order_scan`),
# and the largest |ln lam^k| its in-block powers may reach (float64 ends
# near e^709)
SCAN_BLOCK = 64
_SCAN_EXPONENT = 600.0

# Samples per block of synthesis' full-length stages: each works on this
# many rows (time steps) at a time, so its temporaries stay a fixed size
# however long the scenario is
SYNTH_BLOCK = 4096

# Spacing of the held-out generalization sequence end times (ms), before
# the event and after the training range.
GENERALIZATION_STRIDE_MS = 1000


@dataclass(frozen=True)
class GenerationMix:
    """Integer percentage shares of synchronous, grid-forming, grid-following."""

    sg: int
    gfm: int
    gfl: int

    def __post_init__(self):
        for name in ("sg", "gfm", "gfl"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} share must be >= 1, got {getattr(self, name)}")

    @property
    def total(self) -> int:
        return self.sg + self.gfm + self.gfl

    def fractions(self):
        t = float(self.total)
        return self.sg / t, self.gfm / t, self.gfl / t

    def tag(self) -> str:
        return f"{self.sg:03d}-{self.gfm:03d}-{self.gfl:03d}"


@dataclass(frozen=True)
class ScenarioSpec:
    """A (mix, event) pair awaiting synthesis."""

    mix: GenerationMix
    event: str

    def __post_init__(self):
        if self.event not in EVENTS:
            raise ConfigError(f"unknown event {self.event!r}")

    @property
    def scenario_id(self) -> str:
        return f"{self.event}-{self.mix.tag()}"


def ternary_grid(total: int = 100, min_share: int = 1, step: int = 1):
    """All mixes with parts that are multiples of ``step``, each >= min_share,
    summing to ``total``. Defaults enumerate the full 1%-resolution simplex."""
    if total < 1 or min_share < 1 or step < 1:
        raise ConfigError("total, min_share, and step must all be >= 1")
    if total % step:
        raise ConfigError(f"step {step} does not divide total {total}")
    m = total // step
    k_min = -(-min_share // step)  # ceil
    if 3 * k_min > m:
        raise ConfigError(
            f"cannot fit three shares of at least {min_share} into {total} at step {step}"
        )
    mixes = []
    for a in range(k_min, m - 2 * k_min + 1):
        for b in range(k_min, m - a - k_min + 1):
            c = m - a - b
            mixes.append(GenerationMix(a * step, b * step, c * step))
    return mixes


@dataclass(frozen=True)
class SurrogateConfig:
    """Size, timing, and mix-to-dynamics shaping of the oscillator network."""

    n_units: int = 4
    include_pq: bool = True
    include_line_flows: bool = True
    dt: float = 0.001
    duration_ms: int = 60000
    event_ms: int = 20000
    fault_ms: int = 50
    load_step: float = 0.10
    snr_db: float = 35.0  # measurement noise; None disables

    # mix -> dynamics shaping
    damping_gain: float = 20.0
    damping_mix: tuple = (1.0, 0.20, -0.80)     # weights on (sg, gfm, gfl) fractions
    damping_spread: tuple = (0.0, 0.35, 0.60, 0.85, 1.10)
    stiffness_base: float = 36.0
    stiffness_mix: tuple = (0.55, 0.75)          # offset, sg-fraction gain
    stiffness_unit_step: float = 0.08
    coupling_base: float = 10.0
    coupling_mix: tuple = (0.5, 0.8, 0.4)        # offset, gfm gain, gfl gain
    load_profile: tuple = (1.3, 1.0, 0.9, 1.1, 0.8)
    input_gain: float = 0.7
    fault_units: int = 2
    fault_voltage: float = 0.30
    fault_kick: float = 0.05
    fault_residual: float = 0.04

    # output scaling and ambient excitation
    voltage_gain: float = 8.0
    frequency_gain: float = 2.0
    p_gain: float = 0.15
    q_gain: float = 0.45
    line_gain: float = 0.06
    init_angle_std: float = 8e-4
    init_speed_std: float = 4e-3

    # continuous load fluctuations (per-step acceleration noise): keeps the
    # modes ringing at an amplitude proportional to 1/sqrt(damping), the way
    # ambient PMU data exposes poorly damped oscillations; 0 disables
    process_noise_std: float = 6e-5

    # measurement saturation per channel kind (v, f, p, q, line): deviations
    # are exact up to `linear`, then compressed smoothly and capped; keeps
    # the labeling thresholds (well inside the linear zone) untouched while
    # bounding what diverging scenarios feed the learner
    meas_linear: tuple = (0.15, 1.5, 1.0, 1.0, 1.0)
    meas_cap: tuple = (0.5, 5.0, 3.0, 3.0, 3.0)

    def __post_init__(self):
        if self.n_units < 2:
            raise ConfigError("surrogate needs at least 2 units")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.event_ms >= self.duration_ms:
            raise ConfigError("event must occur before the end of the scenario")

    @property
    def ms_per_sample(self) -> float:
        return self.dt * 1000.0

    def kind_slots(self) -> list:
        """Indices into the per-kind tuples (v, f, p, q, line), active kinds only."""
        slots = [0, 1]
        if self.include_pq:
            slots += [2, 3]
        if self.include_line_flows:
            slots.append(4)
        return slots

    @property
    def n_channels(self) -> int:
        return self.n_units * len(self.kind_slots())


@dataclass(eq=False)
class SurrogateSystem:
    """Continuous-time linear network with measurement maps and offsets."""

    a_matrix: np.ndarray      # (m, m)
    input_vec: np.ndarray     # (m,) direction of the load step
    output_map: np.ndarray    # (n_channels, m)
    output_offset: np.ndarray  # (n_channels,)
    channel_names: tuple

    def spectrum(self) -> np.ndarray:
        """Ground-truth continuous eigenvalues of the state matrix."""
        return np.linalg.eigvals(self.a_matrix)


def build_surrogate(mix: GenerationMix, cfg: SurrogateConfig) -> SurrogateSystem:
    """Assemble the ring network for one generation mix.

    Damping falls (and eventually turns negative) as the grid-following
    share grows; anchor stiffness rises with the synchronous share; ring
    coupling strengthens with converter share. Per-unit offsets keep the
    spectrum simple (distinct eigenvalues).
    """
    k = cfg.n_units
    u, v, w = mix.fractions()

    d_mix = cfg.damping_gain * (
        cfg.damping_mix[0] * u + cfg.damping_mix[1] * v + cfg.damping_mix[2] * w
    )
    spread = [cfg.damping_spread[i % len(cfg.damping_spread)] for i in range(k)]
    damping = np.array([d_mix + s for s in spread])

    kappa_mix = cfg.stiffness_base * (cfg.stiffness_mix[0] + cfg.stiffness_mix[1] * u)
    stiffness = kappa_mix * (1.0 + cfg.stiffness_unit_step * np.arange(k))

    coupling = cfg.coupling_base * (
        cfg.coupling_mix[0] + cfg.coupling_mix[1] * v + cfg.coupling_mix[2] * w
    )
    lap = 2.0 * np.eye(k)
    for i in range(k):
        lap[i, (i + 1) % k] -= 1.0
        lap[i, (i - 1) % k] -= 1.0

    m = 2 * k
    a = np.zeros((m, m))
    a[:k, k:] = np.eye(k)
    a[k:, :k] = -(np.diag(stiffness) + coupling * lap)
    a[k:, k:] = -np.diag(damping)

    profile = np.array([cfg.load_profile[i % len(cfg.load_profile)] for i in range(k)])
    input_vec = np.zeros(m)
    input_vec[k:] = cfg.input_gain * profile

    names = [f"v{i}" for i in range(k)] + [f"f{i}" for i in range(k)]
    c_rows = [np.hstack([cfg.voltage_gain * np.eye(k), np.zeros((k, k))]),
              np.hstack([np.zeros((k, k)), cfg.frequency_gain * np.eye(k)])]
    offsets = [np.full(k, 1.0), np.full(k, 60.0)]
    if cfg.include_pq:
        names += [f"p{i}" for i in range(k)] + [f"q{i}" for i in range(k)]
        c_rows.append(np.hstack([cfg.p_gain * (coupling * lap), np.zeros((k, k))]))
        c_rows.append(np.hstack([cfg.q_gain * np.diag(stiffness), np.zeros((k, k))]))
        offsets += [np.zeros(k), np.zeros(k)]
    if cfg.include_line_flows:
        # per-edge flow along the ring, proportional to the angle difference
        names += [f"l{i}" for i in range(k)]
        edges = np.zeros((k, k))
        for i in range(k):
            edges[i, i] = 1.0
            edges[i, (i + 1) % k] = -1.0
        c_rows.append(np.hstack([cfg.line_gain * coupling * edges,
                                 np.zeros((k, k))]))
        offsets.append(np.zeros(k))

    return SurrogateSystem(
        a_matrix=a,
        input_vec=input_vec,
        output_map=np.vstack(c_rows),
        output_offset=np.concatenate(offsets),
        channel_names=tuple(names),
    )


def _duration_ms(n_samples: int, dt: float) -> int:
    return int(round((n_samples - 1) * dt * 1000.0))


@dataclass(frozen=True)
class ScenarioHeader:
    """What windowing needs of a stored scenario apart from its samples:
    enough to place its training windows without loading the trajectory."""

    mix: GenerationMix
    event: str
    seed: int
    dt: float
    event_ms: int
    n_samples: int
    channel_names: tuple

    @property
    def scenario_id(self) -> str:
        return f"{self.event}-{self.mix.tag()}"

    @property
    def duration_ms(self) -> int:
        return _duration_ms(self.n_samples, self.dt)


@dataclass(eq=False)
class ScenarioRecord:
    """One simulated scenario: trajectory, ground-truth spectrum, label."""

    mix: GenerationMix
    event: str
    seed: int
    trajectory: np.ndarray          # (n_samples, n_channels), C-ordered
    dt: float
    event_ms: int
    channel_names: tuple
    channel_offsets: np.ndarray
    generator_spectrum: np.ndarray  # complex continuous eigenvalues
    label: int = 0
    diverged: bool = False

    @property
    def scenario_id(self) -> str:
        return f"{self.event}-{self.mix.tag()}"

    @property
    def duration_ms(self) -> int:
        return _duration_ms(self.trajectory.shape[0], self.dt)

    def _row(self, t_ms: int) -> int:
        return int(round(t_ms / (self.dt * 1000.0)))

    def window_at(self, end_ms: int, width_ms: int) -> TimeSeriesWindow:
        """The window covering [end_ms - width_ms + 1, end_ms], inclusive."""
        start_ms = end_ms - width_ms + 1
        lo, hi = self._row(start_ms), self._row(end_ms)
        if lo < 0 or hi >= self.trajectory.shape[0]:
            raise InsufficientHistoryError(
                f"scenario {self.scenario_id} spans [0, {self.duration_ms}] ms, "
                f"requested window [{start_ms}, {end_ms}]"
            )
        return TimeSeriesWindow(
            data=self.trajectory[lo:hi + 1],
            dt=self.dt,
            channel_names=self.channel_names,
            t_start=start_ms,
        )


def scenario_seed(master_seed: int, spec: ScenarioSpec) -> int:
    """Per-scenario stream seed derived from the master seed, mix, and event."""
    seq = np.random.SeedSequence(
        [int(master_seed), spec.mix.sg, spec.mix.gfm, spec.mix.gfl,
         EVENTS.index(spec.event)]
    )
    return int(seq.generate_state(1, np.uint64)[0])


def _blocks(n: int, size: int):
    """(lo, hi) bounds of consecutive blocks of ``size`` samples covering n.

    A last block of one sample joins the one before it: numpy multiplies a
    single column through another BLAS routine than a matrix, which would
    round that sample differently from a product over the whole signal.
    """
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def _propagate(out, evals, evecs, coef, t_seconds, x_ss=None) -> None:
    """Write the states of a diagonalized linear system at the given times
    into ``out`` (m x len(t)), plus the constant state ``x_ss`` if given.

    Works SYNTH_BLOCK times at a time; every column gets the bits of one
    product over the whole segment.
    """
    for lo, hi in _blocks(len(t_seconds), SYNTH_BLOCK):
        block = np.real(evecs @ (np.exp(np.outer(evals, t_seconds[lo:hi])) * coef[:, None]))
        if x_ss is None:
            out[:, lo:hi] = block
        else:
            np.add(x_ss[:, None], block, out=out[:, lo:hi])


def _scan_block(lam: np.ndarray, n: int) -> int:
    """Samples per block of `_first_order_scan` for factors ``lam`` over a
    signal of n samples.

    SCAN_BLOCK, unless a factor far from the unit circle would push
    lam^(+-(b-1)) out of float64's exponent range; then it shrinks, so any
    damping stays finite.
    """
    rate = np.abs(np.log(np.abs(lam))).max()
    b = SCAN_BLOCK
    if rate * (b - 1) > _SCAN_EXPONENT:
        b = 1 + int(_SCAN_EXPONENT / rate)
    return min(b, n)


def _first_order_scan(x: np.ndarray, lam: np.ndarray, carry=None, b=None) -> np.ndarray:
    """y[:, n] = x[:, n] + lam * y[:, n - 1] for every row at once, from rest
    or, given ``carry``, from y[:, -1] = carry.

    A blocked prefix scan. Inside a block of b samples the closed form is
    y[k] = lam^k * cumsum_j(lam^-j x[j]) + lam^(k+1) * (end of the previous
    block), so only the carry from block to block is sequential. b defaults
    to `_scan_block`. A long signal scanned in pieces gives the bits of one
    scan over the whole when every piece but the last is a multiple of the
    whole signal's b, which is passed along with the end of the previous
    piece as ``carry``.
    """
    rows, n = x.shape
    if b is None:
        b = _scan_block(lam, n)
    n_blocks = -(-n // b)
    y = np.zeros((rows, n_blocks * b), dtype=np.result_type(x, lam))
    y[:, :n] = x
    y = y.reshape(rows, n_blocks, b)
    k = np.arange(b)
    up = lam[:, None] ** k
    y *= (lam[:, None] ** -k)[:, None, :]
    np.cumsum(y, axis=2, out=y)
    y *= up[:, None, :]
    carry_gain = lam[:, None] * up                   # lam^(k+1)
    if carry is not None:
        y[:, 0] += carry[:, None] * carry_gain
    for i in range(1, n_blocks):
        y[:, i] += y[:, i - 1, -1:] * carry_gain
    return y.reshape(rows, n_blocks * b)[:, :n]


def _noise_response(states: np.ndarray, system: SurrogateSystem, evals, evecs,
                    cfg: SurrogateConfig, rng) -> None:
    """Add the stochastic load-fluctuation response to ``states`` (m x n), in
    place; exact by linear superposition.

    Per-step white acceleration noise is pushed through the diagonalized
    one-step dynamics: each mode is a first-order recursion
    y[n] = u[n] + exp(s dt) y[n-1], computed for all modes at once by
    `_first_order_scan`. The (k, n) acceleration is one draw; the modal
    solve, the scan and the back-transform then run over blocks of about
    SYNTH_BLOCK samples, a multiple of the scan's own block, each carrying
    the modal state on from the one before, so every sample gets the bits of
    one scan over the whole trajectory.
    """
    k = system.a_matrix.shape[0] // 2
    n = states.shape[1]
    accel = cfg.process_noise_std * rng.standard_normal((k, n))
    lam = np.exp(evals * cfg.dt)
    b = _scan_block(lam, n)
    block = max(b, SYNTH_BLOCK // b * b)
    carry = None
    for lo, hi in _blocks(n, block):
        forcing = np.zeros((2 * k, hi - lo), dtype=complex)
        forcing[k:] = accel[:, lo:hi]
        modal_out = _first_order_scan(np.linalg.solve(evecs, forcing), lam, carry, b)
        carry = modal_out[:, -1]
        states[:, lo:hi] += np.real(evecs @ modal_out)


def _saturate(dev: np.ndarray, linear: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Per-channel measurement saturation, in place; returns ``dev``.

    Identity inside +-linear, then a smooth tanh roll-off that approaches
    +-cap. Monotone, so any threshold inside the linear zone is crossed by
    the saturated signal exactly when the raw signal crosses it. Runs over
    blocks of SYNTH_BLOCK rows, and in each only the samples beyond the
    linear zone are computed: a block inside it costs two comparisons per
    sample, and one that saturates throughout needs a few block-sized
    temporaries, whatever the length of ``dev``. Samples inside the zone
    are left as they are; the one value that sign(x) * |x| would change,
    -0.0, turns into +0.0 when synthesis adds the channel offsets.
    """
    for lo, hi in _blocks(dev.shape[0], SYNTH_BLOCK):
        block = dev[lo:hi]
        beyond = block > linear
        beyond |= block < -linear
        if beyond.any():
            lin = np.broadcast_to(linear, block.shape)[beyond]
            span = np.broadcast_to(cap, block.shape)[beyond] - lin
            x = block[beyond]
            block[beyond] = np.sign(x) * (lin + span * np.tanh((np.abs(x) - lin) / span))
    return dev


def synthesize_scenario(mix: GenerationMix, event: str, seed: int,
                        cfg: SurrogateConfig) -> ScenarioRecord:
    """Simulate one scenario and label it.

    The linear dynamics are integrated in closed form through the
    eigendecomposition of the state matrix, so the trajectory is exact up to
    rounding. A random (seeded) initial condition provides ambient modal
    excitation; the load step adds a sustained input from the event time.
    """
    if event not in EVENTS:
        raise ConfigError(f"unknown event {event!r}")
    system = build_surrogate(mix, cfg)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD5C3]))

    k = cfg.n_units
    x0 = np.concatenate([
        cfg.init_angle_std * rng.standard_normal(k),
        cfg.init_speed_std * rng.standard_normal(k),
    ])

    evals, evecs = np.linalg.eig(system.a_matrix)
    n_samples = int(round(cfg.duration_ms / cfg.ms_per_sample)) + 1
    t_all = np.arange(n_samples) * cfg.dt
    event_row = int(round(cfg.event_ms / cfg.ms_per_sample))

    states = np.empty((system.a_matrix.shape[0], n_samples))
    coef0 = np.linalg.solve(evecs, x0.astype(complex))
    _propagate(states[:, :event_row + 1], evals, evecs, coef0, t_all[:event_row + 1])

    if event == "load_increase":
        step = cfg.load_step * system.input_vec
        x_ss = -np.linalg.solve(system.a_matrix, step)
        coef1 = np.linalg.solve(evecs, (states[:, event_row] - x_ss).astype(complex))
        tail = t_all[event_row + 1:] - t_all[event_row]
        _propagate(states[:, event_row + 1:], evals, evecs, coef1, tail, x_ss)
    elif event == "short_circuit":
        # the cleared fault leaves the machines swinging (a speed impulse,
        # strongest at the faulted units) and the operating point sagged
        # (converter-heavy mixes recover less of the pre-fault loading)
        clear_row = event_row + int(round(cfg.fault_ms / cfg.ms_per_sample))
        _propagate(states[:, event_row + 1:clear_row + 1], evals, evecs, coef0,
                   t_all[event_row + 1:clear_row + 1])
        faulted = list(range(min(cfg.fault_units, k)))
        dist = np.array([min(min(abs(i - j), k - abs(i - j)) for j in faulted)
                         for i in range(k)], dtype=float)
        kick = np.zeros(2 * k)
        kick[k:] = cfg.fault_kick / (1.0 + dist) * rng.choice([-1.0, 1.0], size=k)
        x_clear = states[:, clear_row] + kick
        _, _, gfl_frac = mix.fractions()
        residual = -cfg.fault_residual * (0.5 + gfl_frac) * system.input_vec
        x_ss = -np.linalg.solve(system.a_matrix, residual)
        coef1 = np.linalg.solve(evecs, (x_clear - x_ss).astype(complex))
        tail = t_all[clear_row + 1:] - t_all[clear_row]
        _propagate(states[:, clear_row + 1:], evals, evecs, coef1, tail, x_ss)
    else:
        _propagate(states[:, event_row + 1:], evals, evecs, coef0, t_all[event_row + 1:])

    if cfg.process_noise_std > 0.0:
        _noise_response(states, system, evals, evecs, cfg, rng)

    slots = cfg.kind_slots()
    lin = np.repeat(np.asarray([cfg.meas_linear[i] for i in slots]), k)
    cap = np.repeat(np.asarray([cfg.meas_cap[i] for i in slots]), k)
    # one product over the whole trajectory: BLAS picks its kernel by the
    # matrix size, so a blocked product would round differently
    trajectory = (system.output_map @ states).T
    del states
    trajectory = _saturate(trajectory, lin, cap)
    trajectory += system.output_offset

    if event == "short_circuit":
        clear_row = event_row + int(round(cfg.fault_ms / cfg.ms_per_sample))
        faulted = list(range(min(cfg.fault_units, k)))
        trajectory[event_row:clear_row + 1, faulted] = cfg.fault_voltage

    if cfg.snr_db is not None and np.isfinite(cfg.snr_db):
        trajectory = _add_noise(trajectory, system.output_offset, cfg.snr_db, rng)
    else:
        # the noise draw is C-ordered, the transpose above is not; windows
        # are views of these rows, and their statistics must reduce rows in
        # the same order either way
        trajectory = np.ascontiguousarray(trajectory)

    diverged = not np.isfinite(trajectory).all()
    record = ScenarioRecord(
        mix=mix, event=event, seed=int(seed),
        trajectory=trajectory, dt=cfg.dt, event_ms=cfg.event_ms,
        channel_names=system.channel_names,
        channel_offsets=system.output_offset.copy(),
        generator_spectrum=system.spectrum(),
        diverged=diverged,
    )
    if not diverged:
        record.label = label_scenario(record)
    else:
        record.label = 1
    return record


def label_scenario(record: ScenarioRecord) -> int:
    """1 (unstable) if any criterion holds, else 0 (stable).

    Criteria: a continuous eigenvalue with positive real part; a voltage
    channel leaving [0.95, 1.05] p.u. after the settling guard; a frequency
    channel leaving [59.80, 60.20] Hz after the same guard; an oscillatory
    eigenvalue with damping ratio below 3%.
    """
    if record.generator_spectrum is None or len(record.generator_spectrum) == 0:
        raise LabelingError(f"scenario {record.scenario_id} has no ground-truth spectrum")
    lam = np.asarray(record.generator_spectrum)

    if np.any(lam.real > 0.0):
        return 1

    oscillatory = np.abs(lam.imag) > _OSC_IMAG_TOL
    if np.any(oscillatory):
        zeta = -lam.real[oscillatory] / np.abs(lam[oscillatory])
        if np.any(zeta < DAMPING_FLOOR):
            return 1

    guard_row = record._row(record.event_ms + SETTLE_GUARD_MS)
    guard_row = min(guard_row, record.trajectory.shape[0])
    tail = record.trajectory[guard_row:]
    if tail.size:
        names = record.channel_names
        v_cols = [i for i, nm in enumerate(names) if nm.startswith("v")]
        f_cols = [i for i, nm in enumerate(names) if nm.startswith("f")]
        if v_cols:
            volts = tail[:, v_cols]
            if np.any(volts < VOLTAGE_BAND[0]) or np.any(volts > VOLTAGE_BAND[1]):
                return 1
        if f_cols:
            freqs = tail[:, f_cols]
            if np.any(freqs < FREQUENCY_BAND[0]) or np.any(freqs > FREQUENCY_BAND[1]):
                return 1
    return 0


@dataclass(frozen=True)
class WindowProtocol:
    """How labeled sequence samples are carved out of a scenario."""

    sequence: SequenceConfig = field(default_factory=SequenceConfig)
    sample_count: int = 11
    sample_stride_ms: int = 1000
    unperturbed_range: tuple = (10000, 60000)

    def train_end_times(self, record):
        """End times of a scenario's training samples; ``record`` is a
        ScenarioRecord or a ScenarioHeader."""
        if record.event == "unperturbed":
            lo, hi = self.unperturbed_range
            lo = max(lo, self.sequence.history_ms())
            hi = min(hi, record.duration_ms)
            if hi < lo:
                raise InsufficientHistoryError(
                    f"scenario {record.scenario_id} cannot host unperturbed windows"
                )
            rng = np.random.default_rng(np.random.SeedSequence([record.seed, 0xF1E1]))
            ends = set()
            while len(ends) < self.sample_count:
                ends.add(int(rng.integers(lo, hi + 1)))
            return sorted(ends)
        return [record.event_ms + k * self.sample_stride_ms
                for k in range(self.sample_count)]

    def generalization_end_times(self, record: ScenarioRecord):
        if record.event == "unperturbed":
            return []
        stride = GENERALIZATION_STRIDE_MS
        first = -(-self.sequence.history_ms() // stride) * stride
        pre_last = record.event_ms - self.sequence.window_ms
        pre = list(range(first, pre_last + 1, stride))
        post_first = record.event_ms + self.sample_count * self.sample_stride_ms
        post = list(range(post_first, record.duration_ms + 1, stride))
        return pre + post


@dataclass(eq=False)
class WindowedScenario:
    training: list
    generalization: list
    skipped_diverged: bool = False


def _windows_at(record: ScenarioRecord, end_ms: int, proto: WindowProtocol,
                copy_rows: bool) -> list:
    """The windows of the sequence sample ending at ``end_ms``, oldest first.

    They are read-only views of the record's trajectory or, with
    ``copy_rows``, of a private copy of the span they cover. The first
    window checks its shape and samples; each later one is a copy of it
    over its own rows, of which only those no earlier window covers are
    checked, so each sample of the span is checked once at most.
    """
    seq = proto.sequence
    first_start = end_ms - seq.history_ms() + 1
    lo, hi = record._row(first_start), record._row(end_ms)
    if lo < 0 or hi >= record.trajectory.shape[0]:
        raise InsufficientHistoryError(
            f"scenario {record.scenario_id} too short for a sequence ending at {end_ms} ms"
        )
    span = record.trajectory[lo:hi + 1]
    if copy_rows:
        span = span.copy()
    span.flags.writeable = False
    width_rows = record._row(first_start + seq.window_ms - 1) - lo + 1
    starts = seq.window_starts(end_ms)
    offsets = [record._row(start) - lo for start in starts]
    first = TimeSeriesWindow(data=span[offsets[0]:offsets[0] + width_rows], dt=record.dt,
                             channel_names=record.channel_names, t_start=starts[0])
    windows = [first]
    checked = offsets[0] + width_rows
    for off, start in zip(offsets[1:], starts[1:]):
        if not np.isfinite(span[max(off, checked):off + width_rows]).all():
            raise DegenerateWindowError("window contains non-finite samples")
        checked = off + width_rows
        window = copy.copy(first)
        window.data, window.t_start = span[off:off + width_rows], start
        windows.append(window)
    return windows


def window_dataset(record: ScenarioRecord, proto: WindowProtocol,
                   include_generalization: bool = False,
                   tensor_source=None, copy_rows: bool = False) -> WindowedScenario:
    """Carve a scenario into labeled training samples (and held-out samples).

    Event scenarios yield exactly ``sample_count`` training sequences whose
    end times sweep the post-event range; windows before the event and after
    the sweep go to the generalization set only. Diverged records produce
    nothing and are flagged so callers can count the exclusions.

    Each window is a read-only view of ``record.trajectory``, so the samples
    keep the record's samples alive until they drop their windows; with
    ``copy_rows`` each sample copies its own span instead.
    ``tensor_source(windows)`` maps the raw windows of every sample, oldest
    first and sample by sample, to their adjacency tensors in one call, and
    does its own centering; the default builds every tensor with
    `build_tensors`.
    """
    if record.diverged:
        return WindowedScenario(training=[], generalization=[], skipped_diverged=True)
    if tensor_source is None:
        dmd_cfg = proto.sequence.dmd
        tensor_source = lambda windows: build_tensors(windows, dmd_cfg)  # noqa: E731
    ends = proto.train_end_times(record)
    n_train = len(ends)
    if include_generalization:
        ends = ends + proto.generalization_end_times(record)
    windows = [_windows_at(record, end, proto, copy_rows) for end in ends]
    tensors = iter(tensor_source([w for sample in windows for w in sample]))
    samples = [SequenceSample(windows=sample, tensors=[next(tensors) for _ in sample],
                              label=record.label, scenario_id=record.scenario_id,
                              t_end=end)
               for end, sample in zip(ends, windows)]
    return WindowedScenario(training=samples[:n_train], generalization=samples[n_train:])


def subsample_scenarios(items, keep_1_in: int = 20, seed: int = 0,
                        subsample_unperturbed: bool = False):
    """Deterministic pseudo-random keep of about 1 in ``keep_1_in`` event items.

    Unperturbed items are kept unless ``subsample_unperturbed`` is set.
    Original order is preserved.
    """
    items = list(items)
    if not items:
        raise DataError("nothing to subsample")
    if keep_1_in < 1:
        raise ConfigError(f"keep_1_in must be >= 1, got {keep_1_in}")
    if keep_1_in == 1:
        return items
    eligible = [i for i, it in enumerate(items)
                if it.event != "unperturbed" or subsample_unperturbed]
    keep = set(range(len(items))) - set(eligible)
    if eligible:
        n_keep = max(1, int(round(len(eligible) / keep_1_in)))
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5B5A]))
        chosen = rng.permutation(len(eligible))[:n_keep]
        keep.update(eligible[int(j)] for j in chosen)
    return [items[i] for i in sorted(keep)]


def _add_noise(data: np.ndarray, offsets: np.ndarray, snr_db: float, rng):
    """White Gaussian noise scaled per channel to the requested SNR.

    Signal power is measured on the deviation from the channel offset, over
    the whole of ``data`` at once (a blocked mean would round differently);
    a channel with zero deviation power falls back to unit power so the
    noise stays finite. Returns a new C-ordered array, filled SYNTH_BLOCK
    rows at a time with the scaled draw plus ``data``; the draws of the
    blocks follow each other in the stream as one draw of the whole would.
    """
    dev = data - offsets
    dev *= dev
    p_sig = np.mean(dev, axis=0)
    del dev  # freed before the output is allocated
    p_sig = np.where(p_sig > 0.0, p_sig, 1.0)
    sigma = np.sqrt(p_sig / (10.0 ** (snr_db / 10.0)))
    noisy = np.empty(data.shape)
    for lo, hi in _blocks(data.shape[0], SYNTH_BLOCK):
        block = noisy[lo:hi]
        rng.standard_normal(out=block)
        block *= sigma
        block += data[lo:hi]
    return noisy


def inject_noise(window: TimeSeriesWindow, snr_db: float, seed: int = 0):
    """Additive white Gaussian noise at the given SNR (dB), seeded.

    Returns a noisy copy of the window; None or infinite SNR is the disabled
    sentinel and returns the window unchanged.
    """
    if snr_db is None or math.isinf(snr_db):
        return window
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA015]))
    return TimeSeriesWindow(
        data=_add_noise(window.data, window.data.mean(axis=0), snr_db, rng),
        dt=window.dt,
        channel_names=window.channel_names,
        t_start=window.t_start,
    )
