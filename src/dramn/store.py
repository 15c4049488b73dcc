"""On-disk formats: scenario store, manifest, adjacency cache, checkpoints,
report files.

Every binary artifact carries a one-line JSON header followed by raw
little-endian float64 payload, with a CRC32 over the payload so corruption
is detected on load. Every file is written to a temporary file beside its
target and renamed into place, so a killed or failing process leaves either
the previous file or the new one, never a truncated one. All writers are
deterministic: given identical inputs they produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import operator
import os
import zlib

import numpy as np

from .adjacency import tensor_from_bytes, tensor_to_bytes
from .datagen import GenerationMix, ScenarioHeader, ScenarioRecord
from .errors import ConfigError, DataError
from .model import ModelDims
from .training import VARIANTS, Standardizer

MANIFEST_NAME = "manifest.json"
CHECKPOINT_VERSION = 3
# leading bytes of the retired version 1 checkpoint framing
_V1_CHECKPOINT_MAGIC = b"DRMC"


def _write_atomic(path, *chunks) -> None:
    """Write ``chunks`` (bytes-like) to a temporary file beside ``path``,
    then rename it over ``path``.

    On any exception the temporary file is removed and an earlier ``path``
    is left as it was. There is no fsync: this guards against killed or
    failing processes, not against power loss.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_header_and_payload(path, header: dict, payload) -> None:
    """Write the header line, then ``payload`` (any C-contiguous buffer)."""
    header = dict(header)
    header["crc32"] = zlib.crc32(payload)
    _write_atomic(path, json.dumps(header, sort_keys=True).encode() + b"\n", payload)


def _read_header_and_payload(path):
    """The header dict and a checksummed memoryview of the payload, which
    shares the file's buffer instead of copying it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(_V1_CHECKPOINT_MAGIC):
        raise DataError(f"{path}: version 1 checkpoint, which is no longer read; "
                        f"retrain with the train command")
    nl = blob.find(b"\n")
    if nl < 0:
        raise DataError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: header is not an object")
    payload = memoryview(blob)[nl + 1:]
    if zlib.crc32(payload) != header.get("crc32"):
        raise DataError(f"{path}: payload checksum mismatch")
    return header, payload


@contextlib.contextmanager
def _header_fields(path):
    """Turn a missing, mistyped or out-of-range header field into DataError.

    ConfigError is caught too: a stored generation mix is validated by the
    same constructor as a configured one, but here the file is at fault.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: malformed header: {exc!r}") from exc


def scenario_filename(scenario_id: str) -> str:
    return f"{scenario_id}.scn"


def save_scenario(record: ScenarioRecord, directory) -> str:
    """One file per scenario: JSON header + raw float64 LE trajectory."""
    header = {
        "format": "scenario",
        "version": 1,
        "id": record.scenario_id,
        "mix": [record.mix.sg, record.mix.gfm, record.mix.gfl],
        "event": record.event,
        "seed": record.seed,
        "label": record.label,
        "diverged": record.diverged,
        "dt": record.dt,
        "event_ms": record.event_ms,
        "n_samples": record.trajectory.shape[0],
        "channels": list(record.channel_names),
        "offsets": record.channel_offsets.tolist(),
        "spectrum": [[z.real, z.imag] for z in record.generator_spectrum],
    }
    payload = np.ascontiguousarray(record.trajectory, dtype="<f8")
    path = os.path.join(directory, scenario_filename(record.scenario_id))
    _write_header_and_payload(path, header, payload)
    return path


def _scenario_header(path, line: bytes) -> dict:
    """The header of a scenario file from its first line; DataError unless
    it is a JSON object of the scenario format."""
    try:
        header = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != "scenario":
        raise DataError(f"{path}: not a scenario file")
    return header


def read_scenario_line(path) -> ScenarioHeader:
    """The header line of a scenario file, without reading its trajectory.

    Raises DataError for a malformed header. Nothing is checksummed: a caller
    that goes on to the trajectory loads it with `load_scenario`.
    """
    with open(path, "rb") as fh:
        header = _scenario_header(path, fh.readline())
    with _header_fields(path):
        return ScenarioHeader(
            mix=GenerationMix(*header["mix"]),
            event=header["event"],
            seed=int(header["seed"]),
            dt=float(header["dt"]),
            event_ms=int(header["event_ms"]),
            n_samples=int(header["n_samples"]),
            channel_names=tuple(header["channels"]),
        )


def load_scenario(path) -> ScenarioRecord:
    """The scenario record stored at ``path``.

    The payload is read straight into a new (n_samples, channels) float64
    array, which the record owns, so a load holds no copy of the file.
    DataError unless the header is intact, the mix is valid, the payload
    holds exactly n_samples x channels values and its checksum holds.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise DataError(f"{path}: missing header line")
        header = _scenario_header(path, line)
        with _header_fields(path):
            mix = GenerationMix(*header["mix"])
            shape = (operator.index(header["n_samples"]), len(header["channels"]))
        expected = shape[0] * shape[1] * 8
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise DataError(f"{path}: trajectory payload is {size} bytes, "
                            f"expected {expected}")
        trajectory = np.empty(shape, dtype="<f8")
        if fh.readinto(memoryview(trajectory).cast("B")) != expected:
            raise DataError(f"{path}: file changed while it was read")
    if zlib.crc32(trajectory) != header.get("crc32"):
        raise DataError(f"{path}: payload checksum mismatch")
    with _header_fields(path):
        spectrum = np.array([complex(re, im) for re, im in header["spectrum"]])
        return ScenarioRecord(
            mix=mix,
            event=header["event"],
            seed=header["seed"],
            trajectory=trajectory.astype(np.float64, copy=False),
            dt=header["dt"],
            event_ms=header["event_ms"],
            channel_names=tuple(header["channels"]),
            channel_offsets=np.array(header["offsets"], dtype=np.float64),
            generator_spectrum=spectrum,
            label=header["label"],
            diverged=header["diverged"],
        )


def write_manifest(directory, entries, meta: dict = None) -> str:
    """Index of all scenarios with labels, for fast split construction."""
    doc = {
        "format": "manifest",
        "version": 1,
        "meta": meta or {},
        "scenarios": sorted(entries, key=lambda e: e["id"]),
    }
    path = os.path.join(directory, MANIFEST_NAME)
    _write_atomic(path, (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode())
    return path


def read_manifest(directory) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise DataError(f"missing manifest: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "manifest":
        raise DataError(f"{path}: not a manifest")
    return doc


def manifest_entry(record: ScenarioRecord) -> dict:
    return {
        "id": record.scenario_id,
        "file": scenario_filename(record.scenario_id),
        "event": record.event,
        "mix": [record.mix.sg, record.mix.gfm, record.mix.gfl],
        "label": record.label,
        "diverged": record.diverged,
    }


def class_balance(entries) -> dict:
    """Stable/unstable/diverged scenario counts per event type."""
    balance = {}
    for e in entries:
        row = balance.setdefault(e["event"], {"stable": 0, "unstable": 0, "diverged": 0})
        if e["diverged"]:
            row["diverged"] += 1
        elif e["label"] == 1:
            row["unstable"] += 1
        else:
            row["stable"] += 1
    return balance


class ScenarioTensorCache:
    """Per-scenario adjacency tensors keyed by window offset.

    The cache key couples the scenario id with the window/decomposition
    settings, so changing either invalidates the file. A corrupted or
    mismatched file is treated as missing and rebuilt.
    """

    def __init__(self, directory, scenario_id: str, token: str):
        self.directory = directory
        self.scenario_id = scenario_id
        self.token = token
        digest = hashlib.sha1(token.encode()).hexdigest()[:10]
        self.path = os.path.join(directory, f"{scenario_id}.{digest}.adj")
        self.entries = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            header, payload = _read_header_and_payload(self.path)
            if (header.get("format") != "adjacency-cache"
                    or header.get("scenario") != self.scenario_id
                    or header.get("token") != self.token):
                return
            offset = 0
            entries = {}
            with _header_fields(self.path):
                for _ in range(header["count"]):
                    tensor, offset = tensor_from_bytes(payload, offset)
                    entries[tensor.source_window] = tensor
            self.entries = entries
        except DataError:
            self.entries = {}

    def _cached(self, t_start: int, n_channels: int):
        tensor = self.entries.get(t_start)
        return tensor if tensor is not None and tensor.n == n_channels else None

    def lookup(self, starts, n_channels: int):
        """The cached tensors of the windows starting at ``starts``, in order,
        each counted as a hit; None, counting nothing, unless all of them
        are cached for ``n_channels`` channels."""
        tensors = [self._cached(t, n_channels) for t in starts]
        if any(t is None for t in tensors):
            return None
        self.hits += len(tensors)
        return tensors

    def source(self, build_fn):
        """A tensor source that serves cached entries and records new ones.

        It maps a list of windows to their tensors: each cached one is a hit,
        each other start a miss, and ``build_fn`` gets the missed windows in
        one list. A start repeated after its miss is a hit, as it would be
        once the first was recorded.
        """

        def fetch(windows):
            tensors, missed = [], {}
            for w in windows:
                tensor = self._cached(w.t_start, w.n_channels)
                if tensor is None and w.t_start not in missed:
                    missed[w.t_start] = w
                else:
                    self.hits += 1
                tensors.append(tensor)
            if not missed:
                return tensors
            self.misses += len(missed)
            built = dict(zip(missed, build_fn(list(missed.values()))))
            self.entries.update(built)
            self._dirty = True
            return [built[w.t_start] if t is None else t for t, w in zip(tensors, windows)]

        return fetch

    def flush(self) -> None:
        if not self._dirty:
            return
        payload = b"".join(
            tensor_to_bytes(self.entries[k]) for k in sorted(self.entries)
        )
        header = {
            "format": "adjacency-cache",
            "version": 1,
            "scenario": self.scenario_id,
            "token": self.token,
            "count": len(self.entries),
        }
        _write_header_and_payload(self.path, header, payload)
        self._dirty = False


def save_checkpoint(params, standardizer: Standardizer, path, seed: int = 0,
                    test_ids=(), meta: dict = None) -> None:
    """Write a trained model as one bit-exact file.

    The payload is the family's arrays in its ORDER (PARAM_ORDER, or
    GCN_PARAM_ORDER for the baseline), then the standardizer's mean and std,
    n float64 each. The header records dims, seed, the sorted ids of the
    test scenarios, the format version, and the family's KIND.
    """
    n = params.dims.n
    if standardizer.mean.shape != (n,) or standardizer.std.shape != (n,):
        raise DataError(f"standardizer of shapes {standardizer.mean.shape}/"
                        f"{standardizer.std.shape} for a model of {n} channels")
    arrays = [*params.tree().values(), standardizer.mean, standardizer.std]
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    header = {
        "format": "checkpoint",
        "version": CHECKPOINT_VERSION,
        "kind": params.KIND,
        "dims": params.dims.as_dict(),
        "seed": int(seed),
        "test_ids": sorted(test_ids),
    }
    if meta:
        header["meta"] = meta
    _write_header_and_payload(path, header, payload)


def load_checkpoint(path):
    """Read a checkpoint; returns (params, standardizer, header dict)."""
    header, payload = _read_header_and_payload(path)
    if header.get("format") != "checkpoint":
        raise DataError(f"{path}: not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version "
                        f"{header.get('version')!r}; retrain with the train command")
    with _header_fields(path):
        dims = ModelDims(**header["dims"])
        # a checkpoint's kind is the name of the variant whose init builds
        # its family
        kind = header["kind"]
        if kind not in VARIANTS:
            raise DataError(f"{path}: unknown checkpoint kind {kind!r}")
    template = VARIANTS[kind].init(dims, 0)
    slots = {**template.tree(), "mean": np.empty(dims.n), "std": np.empty(dims.n)}
    expected = 8 * sum(a.size for a in slots.values())
    if len(payload) != expected:
        raise DataError(f"{path}: checkpoint payload is {len(payload)} bytes, "
                        f"expected {expected} for dims {dims.as_dict()}")
    arrays = {}
    offset = 0
    for name, arr in slots.items():
        arrays[name] = (
            np.frombuffer(payload, dtype="<f8", count=arr.size, offset=offset)
            .reshape(arr.shape)
            .astype(np.float64)
        )
        offset += arr.size * 8
    standardizer = Standardizer(mean=arrays.pop("mean"), std=arrays.pop("std"))
    return type(template)(dims=dims, **arrays), standardizer, header


def write_table(path, columns, rows, meta: dict = None) -> None:
    """Tab-separated table with '# key=value' metadata lines."""
    lines = [f"# {k}={v}" for k, v in (meta or {}).items()]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def write_json_report(path, obj) -> None:
    _write_atomic(path, (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode())


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
