import ast
import builtins
import dataclasses
import json
import os
import zlib
from pathlib import Path

import numpy as np
import pytest

import dramn
from dramn import store
from dramn.adjacency import build_adjacency, mean_centered
from dramn.datagen import GenerationMix, SurrogateConfig, synthesize_scenario
from dramn.dmd import DmdConfig
from dramn.errors import DataError
from dramn.store import (
    ScenarioTensorCache,
    class_balance,
    load_checkpoint,
    load_scenario,
    manifest_entry,
    read_manifest,
    read_scenario_header,
    save_scenario,
    write_manifest,
    write_table,
    _read_header_and_payload,
)

FAST = SurrogateConfig(n_units=3, include_pq=False, duration_ms=30000,
                       process_noise_std=0.0, snr_db=None)


@pytest.fixture(scope="module")
def record():
    return synthesize_scenario(GenerationMix(60, 20, 20), "load_increase", 5, FAST)


class TestScenarioStore:
    def test_round_trip(self, tmp_path, record):
        path = save_scenario(record, tmp_path)
        back = load_scenario(path)
        assert back.scenario_id == record.scenario_id
        assert back.trajectory.tobytes() == record.trajectory.tobytes()
        assert back.channel_names == record.channel_names
        np.testing.assert_array_equal(back.generator_spectrum,
                                      record.generator_spectrum)
        assert back.label == record.label
        assert back.dt == record.dt

    def test_header_only_read(self, tmp_path, record):
        path = save_scenario(record, tmp_path)
        entry = read_scenario_header(path)
        assert entry == manifest_entry(record)

    def test_payload_is_a_view_and_the_trajectory_owns_its_copy(self, tmp_path, record):
        path = save_scenario(record, tmp_path)
        _, payload = _read_header_and_payload(path)
        assert isinstance(payload, memoryview)
        assert payload.nbytes == record.trajectory.nbytes
        back = load_scenario(path)
        assert back.trajectory.flags.owndata and back.trajectory.flags.writeable
        assert back.trajectory.dtype == np.float64

    def test_corruption_detected(self, tmp_path, record):
        path = save_scenario(record, tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-100] ^= 0x01
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DataError):
            load_scenario(path)

    def test_save_deterministic(self, tmp_path, record):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        pa = save_scenario(record, a)
        pb = save_scenario(record, b)
        assert open(pa, "rb").read() == open(pb, "rb").read()


class TestManifest:
    def test_round_trip_and_sorting(self, tmp_path, record):
        entries = [manifest_entry(record),
                   {"id": "aaa", "file": "aaa.scn", "event": "unperturbed",
                    "mix": [1, 1, 98], "label": 0, "diverged": False}]
        write_manifest(tmp_path, entries, meta={"seed": 5})
        doc = read_manifest(tmp_path)
        assert doc["meta"]["seed"] == 5
        ids = [e["id"] for e in doc["scenarios"]]
        assert ids == sorted(ids)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            read_manifest(tmp_path)

    def test_class_balance(self):
        entries = [
            {"event": "load_increase", "label": 0, "diverged": False},
            {"event": "load_increase", "label": 1, "diverged": False},
            {"event": "load_increase", "label": 1, "diverged": True},
            {"event": "short_circuit", "label": 0, "diverged": False},
        ]
        balance = class_balance(entries)
        assert balance["load_increase"] == {"stable": 1, "unstable": 1, "diverged": 1}
        assert balance["short_circuit"] == {"stable": 1, "unstable": 0, "diverged": 0}


class TestTensorCache:
    def _source(self, record, cache):
        cfg = DmdConfig(rank=3)
        return cache.source(lambda w: build_adjacency(mean_centered(w), cfg))

    def test_miss_then_hit(self, tmp_path, record):
        cache = ScenarioTensorCache(tmp_path, record.scenario_id, "tok1")
        fetch = self._source(record, cache)
        w = record.window_at(5000, 500)
        t1 = fetch(w)
        assert cache.misses == 1 and cache.hits == 0
        cache.flush()

        cache2 = ScenarioTensorCache(tmp_path, record.scenario_id, "tok1")
        fetch2 = self._source(record, cache2)
        t2 = fetch2(w)
        assert cache2.hits == 1 and cache2.misses == 0
        np.testing.assert_array_equal(t1.layers, t2.layers)

    def test_token_mismatch_rebuilds(self, tmp_path, record):
        cache = ScenarioTensorCache(tmp_path, record.scenario_id, "tokA")
        fetch = self._source(record, cache)
        fetch(record.window_at(5000, 500))
        cache.flush()
        other = ScenarioTensorCache(tmp_path, record.scenario_id, "tokB")
        assert not other.entries

    def test_corrupt_cache_treated_as_missing(self, tmp_path, record):
        cache = ScenarioTensorCache(tmp_path, record.scenario_id, "tokC")
        fetch = self._source(record, cache)
        fetch(record.window_at(5000, 500))
        cache.flush()
        blob = bytearray(open(cache.path, "rb").read())
        blob[-3] ^= 0xFF
        open(cache.path, "wb").write(bytes(blob))
        again = ScenarioTensorCache(tmp_path, record.scenario_id, "tokC")
        assert not again.entries
        fetch3 = self._source(record, again)
        fetch3(record.window_at(5000, 500))
        assert again.misses == 1
        again.flush()
        healed = ScenarioTensorCache(tmp_path, record.scenario_id, "tokC")
        assert len(healed.entries) == 1


class TestTables:
    def test_write_table(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_table(path, ("a", "b"), [(1, 0.5), (2, 0.25)],
                    meta={"config_hash": "h", "seed": 0})
        text = path.read_text().splitlines()
        assert text[0] == "# config_hash=h"
        assert text[2] == "a\tb"
        assert text[3] == "1\t0.5"


# Headers that pass each reader's format check but lack a field it needs;
# the checkpoint's dims lack `n`, which ModelDims(**dims) rejects.
_BASE_HEADERS = {
    "load_scenario": {"format": "scenario"},
    "read_scenario_header": {"format": "scenario"},
    "cache": {"format": "adjacency-cache", "scenario": "s", "token": "t"},
    "load_checkpoint": {"format": "checkpoint", "version": 3, "kind": "dramn",
                        "seed": 0, "dims": {"f": 4}},
}


class TestMalformedHeaders:
    """A header of the wrong shape is a DataError, and the cache rebuilds."""

    @pytest.mark.parametrize("reader", sorted(_BASE_HEADERS))
    @pytest.mark.parametrize("head", ["not-object", "missing-key"])
    def test_reader_raises_data_error(self, tmp_path, reader, head):
        payload = b"\0" * 16
        if head == "not-object":
            line = b"[1]"
        else:
            line = json.dumps(dict(_BASE_HEADERS[reader],
                                   crc32=zlib.crc32(payload))).encode()
        if reader == "cache":
            path = ScenarioTensorCache(tmp_path, "s", "t").path
        else:
            path = tmp_path / "file"
        with open(path, "wb") as fh:
            fh.write(line + b"\n" + payload)

        if reader == "cache":
            assert ScenarioTensorCache(tmp_path, "s", "t").entries == {}
        else:
            with pytest.raises(DataError):
                getattr(store, reader)(path)


    def test_zero_share_mix_is_a_data_error(self, tmp_path, record):
        path = edited_header(save_scenario(record, tmp_path), mix=[0, 50, 50])
        for reader in (load_scenario, read_scenario_header):
            with pytest.raises(DataError):
                reader(path)

    def test_short_payload_is_a_data_error(self, tmp_path, record):
        path = edited_header(save_scenario(record, tmp_path), n_samples=10)
        for reader in (load_scenario, read_scenario_header):
            with pytest.raises(DataError, match="payload is"):
                reader(path)


def edited_header(path, **edit):
    """Rewrite a scenario file's header with ``edit``; the payload and its
    checksum stay as they were."""
    blob = Path(path).read_bytes()
    nl = blob.index(b"\n")
    header = dict(json.loads(blob[:nl]), **edit)
    Path(path).write_bytes(json.dumps(header).encode() + blob[nl:])
    return path


class _FailSecondWrite:
    """A file wrapper whose second write (the payload) raises."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return self.fh.write(chunk)


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path, record, monkeypatch):
        path = save_scenario(record, tmp_path)
        before = Path(path).read_bytes()
        changed = dataclasses.replace(record, trajectory=2.0 * record.trajectory)
        monkeypatch.setattr(store, "open",
                            lambda *a, **k: _FailSecondWrite(builtins.open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError):
            save_scenario(changed, tmp_path)
        monkeypatch.undo()
        assert Path(path).read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_written_file_has_ordinary_permissions(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_table(path, ("a",), [(1,)])
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["t.tsv"]

    def test_only_store_opens_files_for_writing(self):
        """Every write goes through the one helper in store."""
        writers = []
        for src in sorted(Path(dramn.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(src.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in ("write_text", "write_bytes"):
                    writers.append(src.name)
                if name != "open":
                    continue
                mode = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"), None)
                if mode is None:
                    continue  # the default mode reads
                if not isinstance(mode, ast.Constant) or set(mode.value) & set("wax+"):
                    writers.append(src.name)
        assert writers == ["store.py"]
