"""On-disk formats: scenario store, manifest, adjacency cache, report files.

Every binary artifact carries a one-line JSON header followed by raw
little-endian float64 payload, with a CRC32 over the payload so corruption
is detected on load. All writers are deterministic: given identical inputs
they produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib

import numpy as np

from .adjacency import tensor_from_bytes, tensor_to_bytes
from .datagen import GenerationMix, ScenarioRecord
from .errors import DataError

MANIFEST_NAME = "manifest.json"


def _write_header_and_payload(path, header: dict, payload) -> None:
    """Write the header line, then ``payload`` (any C-contiguous buffer)."""
    header = dict(header)
    header["crc32"] = zlib.crc32(payload)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(payload)


def _read_header_and_payload(path):
    """The header dict and a checksummed memoryview of the payload, which
    shares the file's buffer instead of copying it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise DataError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable header: {exc}") from exc
    payload = memoryview(blob)[nl + 1:]
    if zlib.crc32(payload) != header.get("crc32"):
        raise DataError(f"{path}: payload checksum mismatch")
    return header, payload


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


def read_scenario_header(path) -> dict:
    """Manifest entry for an existing scenario file.

    The whole file is read and its payload checksummed, so a truncated or
    corrupted file raises DataError; the trajectory itself is not decoded.
    """
    header, _ = _read_header_and_payload(path)
    if header.get("format") != "scenario":
        raise DataError(f"{path}: not a scenario file")
    return {
        "id": header["id"],
        "file": os.path.basename(path),
        "event": header["event"],
        "mix": header["mix"],
        "label": header["label"],
        "diverged": header["diverged"],
    }


def load_scenario(path) -> ScenarioRecord:
    header, payload = _read_header_and_payload(path)
    if header.get("format") != "scenario":
        raise DataError(f"{path}: not a scenario file")
    n_samples = header["n_samples"]
    n_channels = len(header["channels"])
    expected = n_samples * n_channels * 8
    if len(payload) != expected:
        raise DataError(f"{path}: trajectory payload is {len(payload)} bytes, "
                        f"expected {expected}")
    # astype copies: the record owns its trajectory, and the file buffer
    # goes when this returns
    trajectory = (
        np.frombuffer(payload, dtype="<f8")
        .reshape(n_samples, n_channels)
        .astype(np.float64)
    )
    spectrum = np.array([complex(re, im) for re, im in header["spectrum"]])
    return ScenarioRecord(
        mix=GenerationMix(*header["mix"]),
        event=header["event"],
        seed=header["seed"],
        trajectory=trajectory,
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def read_manifest(directory) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise DataError(f"missing manifest: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "manifest":
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
            for _ in range(header["count"]):
                tensor, offset = tensor_from_bytes(payload, offset)
                entries[tensor.source_window] = tensor
            self.entries = entries
        except DataError:
            self.entries = {}

    def source(self, build_fn):
        """A tensor source that serves cached entries and records new ones."""

        def fetch(window):
            cached = self.entries.get(window.t_start)
            if cached is not None and cached.n == window.n_channels:
                self.hits += 1
                return cached
            self.misses += 1
            tensor = build_fn(window)
            self.entries[window.t_start] = tensor
            self._dirty = True
            return tensor

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


def write_table(path, columns, rows, meta: dict = None) -> None:
    """Tab-separated table with '# key=value' metadata lines."""
    lines = [f"# {k}={v}" for k, v in (meta or {}).items()]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json_report(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
