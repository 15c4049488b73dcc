import ast
import builtins
import dataclasses
import json
import os
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import dramn
from dramn import store
from dramn.adjacency import build_tensors
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
    read_scenario_line,
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

    def test_manifest_entry_of_a_loaded_record(self, tmp_path, record):
        path = save_scenario(record, tmp_path)
        assert manifest_entry(load_scenario(path)) == manifest_entry(record)

    def test_header_line_places_windows_without_the_payload(self, tmp_path, record):
        path = save_scenario(record, tmp_path)
        blob = bytearray(Path(path).read_bytes())
        blob[-3] ^= 0xFF  # only a full load checksums the payload
        Path(path).write_bytes(bytes(blob))
        head = read_scenario_line(path)
        assert (head.scenario_id, head.event, head.seed, head.dt, head.event_ms) == (
            record.scenario_id, record.event, record.seed, record.dt, record.event_ms)
        assert head.n_samples == record.trajectory.shape[0]
        assert head.duration_ms == record.duration_ms
        assert head.channel_names == record.channel_names
        with pytest.raises(DataError, match="checksum"):
            load_scenario(path)

    def test_payload_is_a_view_and_the_trajectory_owns_its_copy(self, tmp_path, record):
        path = save_scenario(record, tmp_path)
        _, payload = _read_header_and_payload(path)
        assert isinstance(payload, memoryview)
        assert payload.nbytes == record.trajectory.nbytes
        back = load_scenario(path)
        assert back.trajectory.flags.owndata and back.trajectory.flags.writeable
        assert back.trajectory.dtype == np.float64

    def test_load_reads_the_payload_into_the_trajectory(self, tmp_path, record):
        # no file-sized buffer beside the trajectory (the earlier reader
        # held one, then copied it: a peak of twice the trajectory)
        path = save_scenario(record, tmp_path)
        tracemalloc.start()
        try:
            back = load_scenario(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.trajectory.tobytes() == record.trajectory.tobytes()
        assert peak <= 1.25 * record.trajectory.nbytes

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
        """A one-window fetch over the cache's list-of-windows source."""
        cfg = DmdConfig(rank=3)
        fetch = cache.source(lambda windows: build_tensors(windows, cfg))
        return lambda w: fetch([w])[0]

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

    def test_list_fetch_counts_as_one_window_at_a_time(self, tmp_path, record):
        # a repeated start is a hit once its first window was a miss, and
        # the misses are built in one call
        ends = (5000, 5100, 5000, 5200, 5100, 5000)
        windows = [record.window_at(end, 500) for end in ends]
        cfg = DmdConfig(rank=3)
        warm = ScenarioTensorCache(tmp_path, record.scenario_id, "tokW")
        self._source(record, warm)(windows[3])
        warm.flush()
        one = ScenarioTensorCache(tmp_path, record.scenario_id, "tokW")
        fetch_one = self._source(record, one)
        singly = [fetch_one(w) for w in windows]
        listed = ScenarioTensorCache(tmp_path, record.scenario_id, "tokW")
        calls = []
        fetch = listed.source(lambda ws: calls.append(len(ws)) or build_tensors(ws, cfg))
        together = fetch(windows)
        assert (listed.hits, listed.misses) == (one.hits, one.misses) == (4, 2)
        assert calls == [2]
        assert together[0] is together[2] is together[5]
        for a, b in zip(singly, together):
            assert a.layers.tobytes() == b.layers.tobytes()

    def test_lookup_is_all_or_nothing(self, tmp_path, record):
        cache = ScenarioTensorCache(tmp_path, record.scenario_id, "tokL")
        fetch = self._source(record, cache)
        built = [fetch(record.window_at(end, 500)) for end in (5000, 5100)]
        assert cache.lookup([4501, 4601], record.trajectory.shape[1]) == built
        assert cache.hits == 2
        assert cache.lookup([4501, 4701], record.trajectory.shape[1]) is None
        assert cache.lookup([4501], 2) is None  # cached for another width
        assert (cache.hits, cache.misses) == (2, 2)

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
    "read_scenario_line": {"format": "scenario"},
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
        for reader in (load_scenario, read_scenario_line):
            with pytest.raises(DataError):
                reader(path)

    def test_short_payload_is_a_data_error(self, tmp_path, record):
        path = edited_header(save_scenario(record, tmp_path), n_samples=10)
        with pytest.raises(DataError, match="payload is"):
            load_scenario(path)

    def test_trailing_bytes_are_a_data_error(self, tmp_path, record):
        path = save_scenario(record, tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(DataError, match="payload is"):
            load_scenario(path)


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
