import json

import pytest

from dramn.adjacency import SequenceConfig
from dramn.config import RunConfig, config_from_dict, load_config
from dramn.errors import ConfigError


class TestConfigParsing:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.seed == 0
        assert cfg.dmd.rank == 5
        assert cfg.window.width_ms == 1000
        assert cfg.train.lr == 1e-3

    def test_nested_override(self):
        cfg = config_from_dict({"seed": 9, "dmd": {"rank": 3},
                                "train": {"batch_size": 16}})
        assert cfg.seed == 9
        assert cfg.dmd.rank == 3
        assert cfg.train.batch_size == 16
        assert cfg.train.lr == 1e-3

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"tnseed": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"dmd": {"rnak": 3}})

    @pytest.mark.parametrize("rank", [0, 33, 40])
    def test_rank_outside_the_eigensolver_range(self, rank):
        with pytest.raises(ConfigError):
            config_from_dict({"dmd": {"rank": rank}})

    def test_unknown_event(self):
        with pytest.raises(ConfigError):
            config_from_dict({"data": {"events": ["meteor_strike"]}})

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict({"seed": 1})
        b = config_from_dict({"seed": 1})
        c = config_from_dict({"seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_hash_ignores_paths_only(self):
        base = config_from_dict({"seed": 1})
        moved = config_from_dict({"seed": 1, "paths": {
            "scenario_store": "elsewhere/sc", "adjacency_cache": "elsewhere/cache",
            "checkpoints": "elsewhere/ckpt", "reports": "elsewhere/rep"}})
        assert moved.config_hash() == base.config_hash()
        changes = {
            "seed": 2,
            "data": {"snr_db": 40.0},
            "window": {"l_seq": 4},
            "dmd": {"rank": 4},
            "model": {"hidden_dim": 32},
            "train": {"lr": 2e-3},
            "evaluate": {"threshold": 0.4},
        }
        assert set(changes) == set(base.to_dict()) - {"paths"}
        for section, value in changes.items():
            changed = config_from_dict({"seed": 1, section: value})
            assert changed.config_hash() != base.config_hash(), section

    def test_demo_config_loads(self):
        cfg = load_config("demo")
        assert isinstance(cfg, RunConfig)
        assert cfg.data.n_units == 3
        assert cfg.window.l_seq == 3

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestDomainBuilders:
    def test_sequence_config(self):
        cfg = config_from_dict({"window": {"l_seq": 3, "width_ms": 200},
                                "dmd": {"rank": 4}})
        seq = cfg.sequence_config()
        assert seq.l_seq == 3
        assert seq.window_ms == 200
        assert seq.dmd.rank == 4
        wide = cfg.sequence_config(width_ms=500)
        assert wide.window_ms == 500

    def test_surrogate_config(self):
        cfg = config_from_dict({"data": {"n_units": 3, "include_pq": False,
                                         "snr_db": 40.0}})
        scfg = cfg.surrogate_config()
        assert scfg.n_units == 3
        assert not scfg.include_pq
        assert scfg.snr_db == 40.0

    def test_train_config_seed_flow(self):
        cfg = config_from_dict({"seed": 77})
        assert cfg.train_config().seed == 77

    def test_cache_tokens_pinned(self):
        # every adjacency cache file is keyed by these strings: a change
        # here invalidates all existing caches
        assert SequenceConfig().cache_token() == "L5-w1000-s100-c1-r5-tol1e-10-d0"
        demo = load_config("demo").window_protocol().sequence
        assert demo.cache_token() == "L3-w200-s100-c1-r5-tol1e-10-d0"

    def test_config_hashes_pinned(self):
        # every artifact header stamps the config hash, and the dmd section
        # reaches the cache key through sequence_config: neither may move
        # when the config classes are restructured
        demo, default = load_config("demo"), RunConfig()
        assert demo.config_hash() == "6d329fa8cfcc14df"
        assert default.config_hash() == "88d2fcae23895da2"
        assert demo.sequence_config().cache_token() == "L3-w200-s100-c1-r5-tol1e-10-d0"
        assert default.sequence_config().cache_token() == "L5-w1000-s100-c1-r5-tol1e-10-d0"

    def test_json_round_trip(self, tmp_path):
        cfg = config_from_dict({"seed": 5, "data": {"ternary_step": 10}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = load_config(str(path))
        assert back.config_hash() == cfg.config_hash()
