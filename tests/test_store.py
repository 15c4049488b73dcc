import numpy as np
import pytest

from dramn.adjacency import build_adjacency, mean_centered
from dramn.datagen import GenerationMix, SurrogateConfig, synthesize_scenario
from dramn.dmd import DmdConfig
from dramn.errors import DataError
from dramn.store import (
    ScenarioTensorCache,
    class_balance,
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
