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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .adjacency import SequenceConfig, SequenceSample, build_adjacency
from .dmd import TimeSeriesWindow
from .errors import (
    ConfigError,
    DataError,
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


@dataclass(eq=False)
class ScenarioRecord:
    """One simulated scenario: trajectory, ground-truth spectrum, label."""

    mix: GenerationMix
    event: str
    seed: int
    trajectory: np.ndarray          # (n_samples, n_channels)
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
        return int(round((self.trajectory.shape[0] - 1) * self.dt * 1000.0))

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


def _propagate(evals, evecs, coef, t_seconds):
    """States of a diagonalized linear system at the given times (m x len(t))."""
    return np.real(evecs @ (np.exp(np.outer(evals, t_seconds)) * coef[:, None]))


def _first_order_scan(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """y[:, n] = x[:, n] + lam * y[:, n - 1] for every row at once, from rest.

    A blocked prefix scan. Inside a block of b samples the closed form is
    y[k] = lam^k * cumsum_j(lam^-j x[j]) + lam^(k+1) * (end of the previous
    block), so only the carry from block to block is sequential. The block
    is SCAN_BLOCK samples unless a factor far from the unit circle would
    push lam^(+-(b-1)) out of float64's exponent range; then it shrinks, so
    any damping stays finite.
    """
    rows, n = x.shape
    rate = np.abs(np.log(np.abs(lam))).max()
    b = SCAN_BLOCK
    if rate * (b - 1) > _SCAN_EXPONENT:
        b = 1 + int(_SCAN_EXPONENT / rate)
    b = min(b, n)
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
    for i in range(1, n_blocks):
        y[:, i] += y[:, i - 1, -1:] * carry_gain
    return y.reshape(rows, n_blocks * b)[:, :n]


def _noise_response(system: SurrogateSystem, evals, evecs, cfg: SurrogateConfig,
                    rng, n_samples: int) -> np.ndarray:
    """Stochastic load-fluctuation response, exact by linear superposition.

    Per-step white acceleration noise is pushed through the diagonalized
    one-step dynamics: each mode is a first-order recursion
    y[n] = u[n] + exp(s dt) y[n-1], computed for all modes at once by
    `_first_order_scan`.
    """
    k = system.a_matrix.shape[0] // 2
    accel = cfg.process_noise_std * rng.standard_normal((k, n_samples))
    forcing = np.zeros((2 * k, n_samples))
    forcing[k:] = accel
    modal_in = np.linalg.solve(evecs, forcing.astype(complex))
    modal_out = _first_order_scan(modal_in, np.exp(evals * cfg.dt))
    return np.real(evecs @ modal_out)


def _saturate(dev: np.ndarray, linear: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Per-channel measurement saturation, in place; returns ``dev``.

    Identity inside +-linear, then a smooth tanh roll-off that approaches
    +-cap. Monotone, so any threshold inside the linear zone is crossed by
    the saturated signal exactly when the raw signal crosses it. Only the
    samples beyond the linear zone are computed, so a scenario that stays
    inside it costs two comparisons per sample. Samples inside it are left
    as they are; the one value that sign(x) * |x| would change, -0.0, turns
    into +0.0 when synthesis adds the channel offsets.
    """
    beyond = dev > linear
    beyond |= dev < -linear
    if beyond.any():
        lin = np.broadcast_to(linear, dev.shape)[beyond]
        span = np.broadcast_to(cap, dev.shape)[beyond] - lin
        x = dev[beyond]
        dev[beyond] = np.sign(x) * (lin + span * np.tanh((np.abs(x) - lin) / span))
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
    states[:, :event_row + 1] = _propagate(evals, evecs, coef0, t_all[:event_row + 1])

    if event == "load_increase":
        step = cfg.load_step * system.input_vec
        x_ss = -np.linalg.solve(system.a_matrix, step)
        x_event = states[:, event_row]
        coef1 = np.linalg.solve(evecs, (x_event - x_ss).astype(complex))
        tail = t_all[event_row + 1:] - t_all[event_row]
        states[:, event_row + 1:] = x_ss[:, None] + _propagate(evals, evecs, coef1, tail)
    elif event == "short_circuit":
        # the cleared fault leaves the machines swinging (a speed impulse,
        # strongest at the faulted units) and the operating point sagged
        # (converter-heavy mixes recover less of the pre-fault loading)
        clear_row = event_row + int(round(cfg.fault_ms / cfg.ms_per_sample))
        states[:, event_row + 1:clear_row + 1] = _propagate(
            evals, evecs, coef0, t_all[event_row + 1:clear_row + 1]
        )
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
        states[:, clear_row + 1:] = x_ss[:, None] + _propagate(evals, evecs, coef1, tail)
    else:
        states[:, event_row + 1:] = _propagate(evals, evecs, coef0, t_all[event_row + 1:])

    if cfg.process_noise_std > 0.0:
        states += _noise_response(system, evals, evecs, cfg, rng, n_samples)

    slots = cfg.kind_slots()
    lin = np.repeat(np.asarray([cfg.meas_linear[i] for i in slots]), k)
    cap = np.repeat(np.asarray([cfg.meas_cap[i] for i in slots]), k)
    trajectory = _saturate((system.output_map @ states).T, lin, cap)
    trajectory += system.output_offset

    if event == "short_circuit":
        clear_row = event_row + int(round(cfg.fault_ms / cfg.ms_per_sample))
        faulted = list(range(min(cfg.fault_units, k)))
        trajectory[event_row:clear_row + 1, faulted] = cfg.fault_voltage

    if cfg.snr_db is not None and np.isfinite(cfg.snr_db):
        trajectory = _add_noise(trajectory, system.output_offset, cfg.snr_db, rng)

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

    def train_end_times(self, record: ScenarioRecord):
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


def _sample_at(record: ScenarioRecord, end_ms: int, proto: WindowProtocol,
               tensor_source) -> SequenceSample:
    """One sequence sample ending at ``end_ms``.

    ``tensor_source`` receives each raw window, offsets included, and returns
    its adjacency tensor; it applies ``SequenceConfig.adjacency_input`` itself
    when it has to build one, so a cached tensor costs no centering.
    """
    seq = proto.sequence
    first_start = end_ms - seq.history_ms() + 1
    lo, hi = record._row(first_start), record._row(end_ms)
    if lo < 0 or hi >= record.trajectory.shape[0]:
        raise InsufficientHistoryError(
            f"scenario {record.scenario_id} too short for a sequence ending at {end_ms} ms"
        )
    union = record.trajectory[lo:hi + 1].copy()
    width_rows = record._row(first_start + seq.window_ms - 1) - lo + 1
    windows = []
    for wend in seq.window_ends(end_ms):
        w_start = wend - seq.window_ms + 1
        off = record._row(w_start) - lo
        windows.append(TimeSeriesWindow(
            data=union[off:off + width_rows],
            dt=record.dt,
            channel_names=record.channel_names,
            t_start=w_start,
        ))
    tensors = [tensor_source(w) for w in windows]
    return SequenceSample(
        windows=windows, tensors=tensors, label=record.label,
        scenario_id=record.scenario_id, t_end=end_ms,
    )


def window_dataset(record: ScenarioRecord, proto: WindowProtocol,
                   include_generalization: bool = False,
                   tensor_source=None) -> WindowedScenario:
    """Carve a scenario into labeled training samples (and held-out samples).

    Event scenarios yield exactly ``sample_count`` training sequences whose
    end times sweep the post-event range; windows before the event and after
    the sweep go to the generalization set only. Diverged records produce
    nothing and are flagged so callers can count the exclusions.

    ``tensor_source(window)`` maps a raw window to its adjacency tensor and
    does its own centering (``SequenceConfig.adjacency_input``); the default
    builds every tensor.
    """
    if record.diverged:
        return WindowedScenario(training=[], generalization=[], skipped_diverged=True)
    if tensor_source is None:
        seq = proto.sequence
        tensor_source = lambda w: build_adjacency(seq.adjacency_input(w), seq.dmd)  # noqa: E731
    training = [_sample_at(record, end, proto, tensor_source)
                for end in proto.train_end_times(record)]
    generalization = []
    if include_generalization:
        generalization = [_sample_at(record, end, proto, tensor_source)
                          for end in proto.generalization_end_times(record)]
    return WindowedScenario(training=training, generalization=generalization)


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

    Signal power is measured on the deviation from the channel offset; a
    channel with zero deviation power falls back to unit power so the noise
    stays finite. Returns a new array: the scaled draw with ``data`` added
    into it.
    """
    dev = data - offsets
    dev *= dev
    p_sig = np.mean(dev, axis=0)
    del dev  # freed before the draw is allocated
    p_sig = np.where(p_sig > 0.0, p_sig, 1.0)
    sigma = np.sqrt(p_sig / (10.0 ** (snr_db / 10.0)))
    noisy = rng.standard_normal(data.shape)
    noisy *= sigma
    noisy += data
    return noisy


def inject_noise(obj, snr_db: float, seed: int = 0):
    """Additive white Gaussian noise at the given SNR (dB), seeded.

    Accepts a window or a scenario record and returns a noisy copy of the
    same type; None or infinite SNR is the disabled sentinel and returns the
    input unchanged.
    """
    if snr_db is None or math.isinf(snr_db):
        return obj
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA015]))
    if isinstance(obj, TimeSeriesWindow):
        offsets = obj.data.mean(axis=0)
        return TimeSeriesWindow(
            data=_add_noise(obj.data, offsets, snr_db, rng),
            dt=obj.dt,
            channel_names=obj.channel_names,
            t_start=obj.t_start,
        )
    if isinstance(obj, ScenarioRecord):
        return replace(
            obj, trajectory=_add_noise(obj.trajectory, obj.channel_offsets, snr_db, rng)
        )
    raise TypeError(f"cannot inject noise into {type(obj).__name__}")
