import dataclasses
import json
import os
import re
import shutil
import struct
import weakref
import zlib

import pytest

import dramn.adjacency as adjacency
from dramn import cli
from dramn.adjacency import SequenceConfig
from dramn.cli import main
from dramn.config import load_config
from dramn.datagen import (
    GenerationMix,
    SurrogateConfig,
    WindowProtocol,
    synthesize_scenario,
    window_dataset,
)
from dramn.dmd import DmdConfig
from dramn.errors import DataError
from dramn.store import (
    MANIFEST_NAME,
    ScenarioTensorCache,
    load_scenario,
    manifest_entry,
    read_manifest,
    save_scenario,
    write_manifest,
)
from dramn.training import split_dataset
from test_store import edited_header


def demo_config(tmp_path, **overrides):
    cfg = {
        "seed": 3,
        "paths": {
            "scenario_store": str(tmp_path / "scenarios"),
            "adjacency_cache": str(tmp_path / "cache"),
            "checkpoints": str(tmp_path / "ckpt"),
            "reports": str(tmp_path / "reports"),
        },
        "data": {
            "total": 100, "ternary_step": 20, "min_share": 20, "keep_1_in": 1,
            "events": ["load_increase", "short_circuit"],
            "n_units": 3, "include_pq": False, "duration_ms": 34000,
            "event_ms": 20000,
        },
        "window": {"width_ms": 200, "stride_ms": 100, "l_seq": 3,
                   "sample_count": 11, "sample_stride_ms": 1000},
        "dmd": {"rank": 4, "svd_rel_tol": 1e-10},
        "model": {"embed_dim": 8, "hidden_dim": 8},
        "train": {"lr": 1e-3, "weight_decay": 1e-2, "epochs": 4,
                  "batch_size": 32, "early_stop_patience": 4,
                  "val_fraction": 0.15, "test_fraction": 0.25},
        "evaluate": {"threshold": 0.5, "snr_list": [35, 85],
                     "augment_snr": [35], "window_sweep": [200],
                     "node_subsets": [2]},
    }
    for key, value in overrides.items():
        cfg[key].update(value) if isinstance(value, dict) else cfg.update({key: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run generate + train once; several commands reuse the artifacts."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg_path = demo_config(tmp_path)
    assert main(["generate", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path, "--deterministic"]) == 0
    return tmp_path, cfg_path


class TestGenerate:
    def test_store_and_manifest(self, pipeline):
        tmp_path, _ = pipeline
        manifest = read_manifest(tmp_path / "scenarios")
        # ternary grid at step 20 with min 20: compositions of 5 into 3 parts
        # each >= 1 -> 6 mixes, two events
        assert len(manifest["scenarios"]) == 12
        assert all((tmp_path / "scenarios" / e["file"]).exists()
                   for e in manifest["scenarios"])

    def test_skip_existing_is_idempotent(self, pipeline):
        tmp_path, cfg_path = pipeline
        store = tmp_path / "scenarios"
        before = {f: os.path.getmtime(store / f) for f in os.listdir(store)}
        assert main(["generate", "--config", cfg_path, "--skip-existing"]) == 0
        after = {f: os.path.getmtime(store / f) for f in os.listdir(store)}
        for name in before:
            if name.endswith(".scn"):
                assert after[name] == before[name]

    def test_skip_existing_regenerates_bad_files(self, tmp_path):
        # a zero-share mix that only load_scenario rejected, and an intact
        # file that holds another scenario than its name says
        cfg_path = demo_config(tmp_path)
        assert main(["generate", "--config", cfg_path, "--deterministic"]) == 0
        store = tmp_path / "scenarios"
        manifest = read_manifest(store)["scenarios"]
        first, second, third = (store / e["file"] for e in manifest[:3])
        edited_header(first, mix=[0, 50, 50])
        second.write_bytes(third.read_bytes())

        assert main(["generate", "--config", cfg_path, "--deterministic",
                     "--skip-existing"]) == 0
        assert read_manifest(store)["scenarios"] == manifest
        for entry in manifest[:2]:
            assert load_scenario(store / entry["file"]).scenario_id == entry["id"]

    def test_infeasible_grid_exit_code(self, tmp_path):
        cfg_path = demo_config(tmp_path, data={"ternary_step": 7})
        assert main(["generate", "--config", cfg_path]) == 2


class TestTrain:
    def test_artifacts_exist(self, pipeline):
        tmp_path, _ = pipeline
        assert (tmp_path / "ckpt" / "model.ckpt").exists()
        # the standardizer travels inside the checkpoint
        assert not (tmp_path / "ckpt" / "standardizer.json").exists()
        history = (tmp_path / "ckpt" / "history.tsv").read_text().splitlines()
        assert any(line.startswith("epoch") for line in history)

    def test_cache_populated_and_reused(self, pipeline):
        tmp_path, cfg_path = pipeline
        cache_files = list((tmp_path / "cache").glob("*.adj"))
        assert cache_files
        before = {f: f.stat().st_mtime for f in cache_files}
        assert main(["train", "--config", cfg_path, "--deterministic"]) == 0
        for f, mtime in before.items():
            assert f.stat().st_mtime == mtime


class TestEvaluate:
    def test_metrics_reports(self, pipeline):
        tmp_path, cfg_path = pipeline
        assert main(["evaluate", "--config", cfg_path]) == 0
        lines = (tmp_path / "reports" / "metrics.tsv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert any(l.startswith("test\t") for l in lines)
        assert any(l.startswith("generalization\t") for l in lines)
        payload = json.loads((tmp_path / "reports" / "metrics.json").read_text())
        assert "test" in payload and "generalization" in payload

    def test_prints_what_it_windowed(self, pipeline, capsys):
        # the test samples' windows hit the cache `train` filled; every
        # generalization window's tensor is built here
        _, cfg_path = pipeline
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg_path]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        match = re.fullmatch(r"windowed (\d+) test scenarios -> (\d+) samples, "
                             r"(\d+) generalization samples "
                             r"\(cache hits: (\d+), tensors built: (\d+)\)", line)
        assert match, line
        scenarios, samples, generalization, hits, built = map(int, match.groups())
        assert scenarios == len(cli._test_entries(load_config(cfg_path)))
        assert samples == 11 * scenarios
        assert generalization > 0
        assert (hits, built) == (3 * samples, 3 * generalization)

    def test_missing_checkpoint_exit_code(self, tmp_path):
        cfg_path = demo_config(tmp_path)
        assert main(["generate", "--config", cfg_path]) == 0
        assert main(["evaluate", "--config", cfg_path]) == 3


    def test_refuses_checkpoint_of_another_seed(self, pipeline, capsys):
        # the seed fixes the split, so another seed would score training
        # scenarios as test
        _, cfg_path = pipeline
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg_path, "--seed", "4"]) == 3
        err = capsys.readouterr().err
        assert "seed 3" in err and "seed 4" in err
        assert main(["noise", "--config", cfg_path, "--seed", "4"]) == 3
        assert main(["evaluate", "--config", cfg_path, "--seed", "3"]) == 0

    def test_refuses_checkpoint_of_another_split(self, pipeline, tmp_path, capsys):
        # same seed, other test fraction: the split the checkpoint names no
        # longer matches, and scoring would mix training scenarios into test
        _, cfg_path = pipeline
        cfg = json.loads(open(cfg_path).read())
        cfg["train"]["test_fraction"] = 0.4
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(other)]) == 3
        assert "test split" in capsys.readouterr().err
        assert main(["noise", "--config", str(other)]) == 3

    def test_manifest_split_equals_sample_split(self, tmp_path):
        cfg_path = demo_config(tmp_path)
        assert main(["generate", "--config", cfg_path]) == 0
        cfg = load_config(cfg_path)
        store = cfg.paths.scenario_store
        entries = read_manifest(store)["scenarios"]
        diverged = load_scenario(os.path.join(store, entries[4]["file"]))
        diverged.diverged = True
        save_scenario(diverged, store)
        entries[4] = manifest_entry(diverged)
        write_manifest(store, entries)

        samples, stats = cli._build_dataset(cfg)
        assert stats["diverged"] == 1
        for seed in range(10):
            seeded = dataclasses.replace(cfg, seed=seed)
            _, _, test = split_dataset(samples, seeded.train_config())
            want = list(dict.fromkeys(s.scenario_id for s in test))
            assert [e["id"] for e in cli._test_entries(seeded)] == want


class TestTensorSource:
    """A cached tensor source gets raw windows and centers only on a miss."""

    def test_centers_and_builds_only_on_misses(self, tmp_path, monkeypatch):
        surrogate = SurrogateConfig(n_units=2, include_pq=False, include_line_flows=False,
                                    duration_ms=24000)
        record = synthesize_scenario(GenerationMix(50, 25, 25), "load_increase", 3,
                                     surrogate)
        proto = WindowProtocol(
            sequence=SequenceConfig(l_seq=3, window_ms=200, stride_ms=100,
                                    dmd=DmdConfig(rank=3)),
            sample_count=3,
        )
        centered = []
        real_centered = adjacency._centered
        monkeypatch.setattr(adjacency, "_centered",
                            lambda data, out=None: centered.append(data)
                            or real_centered(data, out))

        def window_once():
            cache = ScenarioTensorCache(tmp_path, record.scenario_id, "tok")
            cached = cli._cached_source(cache, proto.sequence)
            received = []

            def source(windows):
                received.extend(windows)
                return cached(windows)

            windowed = window_dataset(record, proto, tensor_source=source)
            cache.flush()
            return cache, received, windowed

        cache, received, first = window_once()
        assert len(received) == 3 * 3
        assert cache.misses == len(centered) == len(received) and cache.hits == 0
        for w in received:
            lo = record._row(w.t_start)
            assert w.data.tobytes() == record.trajectory[lo:lo + w.n_samples].tobytes()

        centered.clear()
        cache, received, second = window_once()
        assert cache.hits == len(received) == 9
        assert cache.misses == 0 and not centered
        for a, b in zip(first.training, second.training):
            for ta, tb in zip(a.tensors, b.tensors):
                assert ta.layers.tobytes() == tb.layers.tobytes()


class TestSelect:
    def test_reports(self, pipeline):
        tmp_path, cfg_path = pipeline
        assert main(["select", "--config", cfg_path, "--k", "3"]) == 0
        strength = (tmp_path / "reports" / "node_strength.tsv").read_text()
        assert "composite" in strength
        edges = (tmp_path / "reports" / "edges.tsv").read_text().splitlines()
        assert edges[-1].count("\t") == 2
        payload = json.loads((tmp_path / "reports" / "node_strength.json").read_text())
        assert "event_overlap" in payload


    def test_default_k_is_capped_at_channel_count(self, pipeline, capsys):
        tmp_path, cfg_path = pipeline
        assert main(["select", "--config", cfg_path]) == 0
        payload = json.loads((tmp_path / "reports" / "node_strength.json").read_text())
        n_channels = len(payload["combined_ranking"])
        assert n_channels < 13
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("top channels:")
        assert len(line.split(":", 1)[1].split(",")) == n_channels

    def test_explicit_k_out_of_range_exit_code(self, pipeline):
        _, cfg_path = pipeline
        assert main(["select", "--config", cfg_path, "--k", "50"]) == 3


def count_loads(monkeypatch):
    """Weak references to the trajectory of every scenario `cli` loads."""
    loaded = []
    real = cli.load_scenario

    def counting(path):
        record = real(path)
        loaded.append(weakref.ref(record.trajectory))
        return record

    monkeypatch.setattr(cli, "load_scenario", counting)
    return loaded


def live_at_each_load(monkeypatch):
    """For each scenario `cli` loads, how many of the trajectories it loaded
    before were still alive when the load began."""
    loaded, live = [], []
    real = cli.load_scenario

    def checking(path):
        live.append(sum(ref() is not None for ref in loaded))
        record = real(path)
        loaded.append(weakref.ref(record.trajectory))
        return record

    monkeypatch.setattr(cli, "load_scenario", checking)
    return live


class TestLoadsOnlyWhatItReads:
    """Commands load the scenarios they read and let each record go once it
    is windowed."""

    def test_no_record_outlives_build_dataset(self, pipeline, monkeypatch):
        _, cfg_path = pipeline
        cfg = load_config(cfg_path)
        loaded = count_loads(monkeypatch)
        samples, stats = cli._build_dataset(cfg)
        assert len(loaded) == 12 and stats["scenarios"] == 12
        assert all(ref() is None for ref in loaded)
        train_ids = cli._split(read_manifest(cfg.paths.scenario_store)["scenarios"],
                               cfg)[0]
        for sample in samples:
            assert sample.windows is None
            assert sample.channel_means.shape == (3, 9)
            if sample.scenario_id in train_ids:
                assert sample.channel_squares.shape == (3, 9)
            else:
                with pytest.raises(DataError, match="dropped its windows"):
                    sample.channel_squares

    def test_each_record_is_released_before_the_next_loads(self, pipeline, monkeypatch):
        _, cfg_path = pipeline
        live = live_at_each_load(monkeypatch)
        cli._build_dataset(load_config(cfg_path))
        assert live == [0] * 12
        del live[:]
        assert main(["evaluate", "--config", cfg_path]) == 0
        assert live == [0, 0, 0]

    def test_select_reads_tensors_from_the_cache(self, pipeline, tmp_path, monkeypatch):
        src, _ = pipeline
        for name in ("scenarios", "cache", "ckpt"):
            shutil.copytree(src / name, tmp_path / name)
        cfg_path = demo_config(tmp_path)
        reports = [tmp_path / "reports" / name
                   for name in ("node_strength.tsv", "edges.tsv", "node_strength.json")]
        loaded = count_loads(monkeypatch)
        assert main(["select", "--config", cfg_path, "--k", "3"]) == 0
        assert loaded == []
        warm = [p.read_bytes() for p in reports]

        # a scenario whose cache file is gone is loaded, windowed and cached
        victim = sorted((tmp_path / "cache").glob("*.adj"))[0]
        blob = victim.read_bytes()
        victim.unlink()
        assert main(["select", "--config", cfg_path, "--k", "3"]) == 0
        assert len(loaded) == 1
        assert [p.read_bytes() for p in reports] == warm
        assert victim.read_bytes() == blob

    def test_noise_loads_only_what_it_windows(self, pipeline, monkeypatch):
        _, cfg_path = pipeline
        n_test = len(cli._test_entries(load_config(cfg_path)))
        assert n_test == 3
        loaded = count_loads(monkeypatch)
        assert main(["noise", "--config", cfg_path, "--deterministic"]) == 0
        assert len(loaded) == n_test
        del loaded[:]
        assert main(["noise", "--config", cfg_path, "--deterministic",
                     "--augmented"]) == 0
        assert len(loaded) == 12


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"unknown_section": {}}')
        assert main(["generate", "--config", str(bad)]) == 2

    def test_missing_config(self):
        assert main(["generate", "--config", "/does/not/exist.json"]) == 2

    def test_rank_beyond_the_dense_eigensolver(self, tmp_path, capsys):
        # 40 > MAX_SMALL_EIG: refused before any scenario is generated
        cfg_path = demo_config(tmp_path, dmd={"rank": 40})
        assert main(["generate", "--config", cfg_path]) == 2
        assert "rank must be in [1, 32], got 40" in capsys.readouterr().err
        assert not (tmp_path / "scenarios").exists()

    def test_missing_manifest(self, tmp_path):
        cfg_path = demo_config(tmp_path)
        assert main(["train", "--config", cfg_path]) == 3

    @pytest.mark.parametrize("text", ["{not json", "[]"], ids=["bad-json", "not-object"])
    def test_corrupt_manifest(self, tmp_path, text):
        cfg_path = demo_config(tmp_path)
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / MANIFEST_NAME).write_text(text)
        assert main(["train", "--config", cfg_path]) == 3

    @pytest.mark.parametrize("corrupt, message", [
        (lambda blob: blob[:6], "missing header line"),
        (lambda blob: blob[:40], "missing header line"),
        (lambda blob: blob[:8] + b"\xff" * 8 + blob[16:], "unreadable header"),
        (lambda blob: reframed(blob, lambda h, p: (b"[]", p)), "not an object"),
        (lambda blob: reframed(blob, lambda h, p: (b'{"version": 2}', p)),
         "checksum mismatch"),
        # the retired version 1 framing: magic, header length, header, payload
        (lambda blob: reframed(blob, lambda h, p: (
            b"DRMC" + struct.pack("<I", len(h)) + h, p), newline=b""), "retrain"),
        # the retired version 2 header, with per-gate arrays in its payload
        (lambda blob: reframed(blob, lambda h, p: (
            json.dumps(dict(json.loads(h), version=2)).encode(), p)), "retrain"),
        # the standardizer's std loses a channel; the checksum still holds
        (lambda blob: reframed(blob, lambda h, p: (with_crc(h, p[:-8]), p[:-8])),
         "payload is"),
    ], ids=["six-bytes", "cut-header", "garbled-header", "not-object", "no-checksum",
            "v1-framing", "v2-header", "length-mismatch"])
    def test_corrupt_checkpoint(self, pipeline, tmp_path, capsys, corrupt, message):
        src, _ = pipeline
        cfg_path = demo_config(tmp_path)
        (tmp_path / "ckpt").mkdir()
        blob = (src / "ckpt" / "model.ckpt").read_bytes()
        (tmp_path / "ckpt" / "model.ckpt").write_bytes(corrupt(blob))
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg_path]) == 3
        assert message in capsys.readouterr().err


def reframed(blob, edit, newline=b"\n"):
    """Rebuild a checkpoint from ``edit(header_bytes, payload)``."""
    nl = blob.index(b"\n")
    head, payload = edit(blob[:nl], blob[nl + 1:])
    return head + newline + payload


def with_crc(head, payload):
    """``head`` with its checksum recomputed over ``payload``."""
    header = json.loads(head)
    header["crc32"] = zlib.crc32(payload)
    return json.dumps(header).encode()


class TestDeterminism:
    def test_generate_twice_bit_identical(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            sub = tmp_path / name
            sub.mkdir()
            dirs.append(sub)
        cfg_a, cfg_b = demo_config(dirs[0]), demo_config(dirs[1])
        assert main(["generate", "--config", cfg_a, "--deterministic"]) == 0
        assert main(["generate", "--config", cfg_b, "--deterministic"]) == 0
        store_a, store_b = dirs[0] / "scenarios", dirs[1] / "scenarios"
        for name in sorted(os.listdir(store_a)):
            if name.endswith(".scn"):
                assert (store_a / name).read_bytes() == (store_b / name).read_bytes()
