"""Tests for layered configuration loading and typed accessors."""

from __future__ import annotations

import pytest

from harmonizer.config import DEFAULTS, ENV_PREFIX, SEARCH_SPACE, TUNED, PipelineConfig
from harmonizer.errors import ConfigError
from harmonizer.graph import FilterParams
from harmonizer.match import ScoreBound, WeightVector
from harmonizer.tune import TpeConfig


def load(tmp_path=None, text=None, environ=None, overrides=None):
    """Load a config with environment isolated unless given explicitly."""
    path = None
    if text is not None:
        path = tmp_path / "config.yaml"
        path.write_text(text, encoding="utf-8")
    return PipelineConfig.load(path, environ=environ or {}, overrides=overrides)


class TestDefaults:
    def test_no_sources_yields_defaults(self):
        config = load()
        assert config.data == DEFAULTS

    def test_defaults_not_shared(self):
        config = load()
        config.data["graph"]["threshold"] = 99.0
        assert DEFAULTS["graph"]["threshold"] == 3.9
        assert load()["graph"]["threshold"] == 3.9

    def test_getitem_section(self):
        config = load()
        assert config["match"]["weights"]["cos"] == 1.0


class TestFileLayer:
    def test_file_overrides_defaults(self, tmp_path):
        config = load(tmp_path, "graph:\n  threshold: 2.5\n")
        assert config["graph"]["threshold"] == 2.5
        assert config["graph"]["resolution"] == 1.0

    def test_empty_file_is_defaults(self, tmp_path):
        config = load(tmp_path, "")
        assert config.data == DEFAULTS

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            PipelineConfig.load(tmp_path / "nope.yaml", environ={})

    def test_top_level_scalar_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="top level"):
            load(tmp_path, "just a string\n")

    def test_malformed_yaml_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot parse"):
            load(tmp_path, "graph: [unclosed\n")

    def test_unknown_key_names_dotted_path(self, tmp_path):
        with pytest.raises(ConfigError, match="match.weights.cosine"):
            load(tmp_path, "match:\n  weights:\n    cosine: 0.5\n")

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key 'grpah'"):
            load(tmp_path, "grpah:\n  threshold: 1.0\n")

    def test_section_must_be_mapping(self, tmp_path):
        with pytest.raises(ConfigError, match="must be a mapping"):
            load(tmp_path, "graph: 5\n")


class TestCoercion:
    def test_int_promoted_to_float(self, tmp_path):
        config = load(tmp_path, "graph:\n  threshold: 4\n")
        assert config["graph"]["threshold"] == 4.0
        assert isinstance(config["graph"]["threshold"], float)

    def test_float_rejected_for_int(self, tmp_path):
        with pytest.raises(ConfigError, match="run.seed.*integer"):
            load(tmp_path, "run:\n  seed: 1.5\n")

    def test_bool_rejected_for_int(self, tmp_path):
        with pytest.raises(ConfigError, match="run.threads.*integer"):
            load(tmp_path, "run:\n  threads: true\n")

    def test_bool_rejected_for_float(self, tmp_path):
        with pytest.raises(ConfigError, match="graph.threshold.*number"):
            load(tmp_path, "graph:\n  threshold: true\n")

    def test_number_rejected_for_string(self, tmp_path):
        with pytest.raises(ConfigError, match="augment.provider.query_param.*string"):
            load(tmp_path, "augment:\n  provider:\n    query_param: 3\n")

    def test_null_rejected_for_numeric(self, tmp_path):
        with pytest.raises(ConfigError, match="may not be null"):
            load(tmp_path, "graph:\n  threshold: null\n")

    def test_nullable_path_accepts_null(self, tmp_path):
        config = load(tmp_path, "parse:\n  designators: null\n")
        assert config["parse"]["designators"] is None

    def test_nullable_path_accepts_string(self, tmp_path):
        config = load(tmp_path, "parse:\n  designators: designators.txt\n")
        assert config["parse"]["designators"] == "designators.txt"

    def test_nullable_path_rejects_number(self, tmp_path):
        with pytest.raises(ConfigError, match="path string"):
            load(tmp_path, "parse:\n  designators: 9\n")


    @pytest.mark.parametrize("key", ["augment.blocklist_k", "parse.common_words_n"])
    def test_negative_count_rejected_in_every_layer(self, tmp_path, key):
        section, name = key.split(".")
        message = f"{key} must be >= 0, got -1"
        with pytest.raises(ConfigError, match=message):
            load(tmp_path, f"{section}:\n  {name}: -1\n")
        with pytest.raises(ConfigError, match=message):
            load(environ={f"{ENV_PREFIX}{section}_{name}".upper(): "-1"})
        with pytest.raises(ConfigError, match=message):
            load(overrides={section: {name: -1}})
        assert load(overrides={section: {name: 0}})[section][name] == 0


class TestEnvLayer:
    def test_simple_env_override(self):
        config = load(environ={"HARMONIZER_GRAPH_THRESHOLD": "2.5"})
        assert config["graph"]["threshold"] == 2.5

    def test_underscore_key_matched_greedily(self):
        config = load(environ={"HARMONIZER_AUGMENT_BLOCKLIST_K": "5"})
        assert config["augment"]["blocklist_k"] == 5

    def test_nested_section_key(self):
        config = load(environ={"HARMONIZER_MATCH_WEIGHTS_COS": "0.8"})
        assert config["match"]["weights"]["cos"] == 0.8

    def test_multi_underscore_leaf(self):
        config = load(environ={"HARMONIZER_TUNE_N_STARTUP": "3"})
        assert config["tune"]["n_startup"] == 3

    def test_yaml_scalar_parsing(self):
        config = load(environ={"HARMONIZER_RUN_THREADS": "4"})
        assert config["run"]["threads"] == 4

    def test_string_value_passthrough(self):
        config = load(environ={"HARMONIZER_AUGMENT_PROVIDER_QUERY_PARAM": "query"})
        assert config["augment"]["provider"]["query_param"] == "query"

    def test_unrelated_env_ignored(self):
        config = load(environ={"PATH": "/usr/bin", "HARMONIZERX": "1"})
        assert config.data == DEFAULTS

    def test_unknown_env_key_rejected(self):
        with pytest.raises(ConfigError, match="no config key matches"):
            load(environ={ENV_PREFIX + "GRAPH_TRESHOLD": "1"})

    @pytest.mark.parametrize("name", ["HARMONIZER_RUN_SEED", "HARMONIZER_run_seed", "harmonizer_run_seed", "Harmonizer_RUN_SEED"])
    def test_env_names_match_regardless_of_case(self, name):
        assert load(environ={name: "2"})["run"]["seed"] == 2

    def test_unknown_lower_case_env_key_rejected(self):
        with pytest.raises(ConfigError, match="harmonizer_graph_treshold: no config key matches 'graph_treshold'"):
            load(environ={"harmonizer_graph_treshold": "1"})

    def test_env_pointing_at_section_rejected(self):
        with pytest.raises(ConfigError, match="section, not a key"):
            load(environ={"HARMONIZER_MATCH_WEIGHTS": "1"})

    def test_env_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="run.seed.*integer"):
            load(environ={"HARMONIZER_RUN_SEED": "soon"})

    def test_env_beats_file(self, tmp_path):
        config = load(
            tmp_path,
            "graph:\n  threshold: 2.0\n",
            environ={"HARMONIZER_GRAPH_THRESHOLD": "3.0"},
        )
        assert config["graph"]["threshold"] == 3.0

    def test_os_environ_used_when_not_passed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARMONIZER_RUN_SEED", "7")
        config = PipelineConfig.load()
        assert config["run"]["seed"] == 7


class TestOverridesLayer:
    def test_overrides_beat_env_and_file(self, tmp_path):
        config = load(
            tmp_path,
            "graph:\n  threshold: 2.0\n",
            environ={"HARMONIZER_GRAPH_THRESHOLD": "3.0"},
            overrides={"graph": {"threshold": 4.5}},
        )
        assert config["graph"]["threshold"] == 4.5

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load(overrides={"graph": {"thresh": 1.0}})


class TestHashing:
    def test_hash_is_stable(self):
        assert load().config_hash() == load().config_hash()

    def test_hash_reflects_values(self):
        a = load()
        b = load(environ={"HARMONIZER_RUN_SEED": "1"})
        assert a.config_hash() != b.config_hash()
        assert len(a.config_hash()) == 64

    def test_canonical_json_sorted_and_compact(self):
        text = load().canonical_json()
        assert text.index('"augment"') < text.index('"run"')
        assert ": " not in text


class TestBuilders:
    def test_weight_vector_defaults(self):
        weights, _ = load().params_at({})
        assert weights == WeightVector(1.0, 1.0, 1.0, 1.0, 1.0)

    def test_weight_vector_reflects_config(self, tmp_path):
        config = load(tmp_path, "match:\n  weights:\n    cos: 0.3\n")
        assert config.params_at({})[0].cos == 0.3

    def test_filter_params_defaults(self):
        _, params = load().params_at({})
        assert params == FilterParams(
            threshold=3.9,
            resolution=1.0,
            bridgeness_threshold=1.0,
            location_boost=1.0,
            seed=0,
        )

    def test_filter_params_take_run_seed(self):
        config = load(environ={"HARMONIZER_RUN_SEED": "9"})
        assert config.params_at({})[1].seed == 9

    def test_tpe_config(self):
        config = load(environ={"HARMONIZER_TUNE_N_STARTUP": "31", "HARMONIZER_RUN_SEED": "3"})
        assert config.tpe_config() == TpeConfig(n_startup=31, seed=3)


class TestTuningBridge:
    def test_point_maps_to_weights_and_filter(self):
        point = {
            "w_token": 0.2,
            "w_first_token": 0.3,
            "w_url_text": 0.4,
            "w_domain": 0.5,
            "w_cos": 0.6,
            "threshold": 1.5,
            "resolution": 0.8,
            "bridgeness": -0.5,
            "location_boost": 0.1,
        }
        weights, params = load().params_at(point)
        assert weights == WeightVector(0.2, 0.3, 0.4, 0.5, 0.6)
        assert params.threshold == 1.5
        assert params.resolution == 0.8
        assert params.bridgeness_threshold == -0.5
        assert params.location_boost == 0.1

    def test_missing_dims_fall_back_to_config(self):
        weights, params = load().params_at({"w_cos": 0.7})
        assert weights.cos == 0.7
        assert weights.token == 1.0
        assert params.threshold == 3.9

    def test_incumbent_point_is_current_config(self):
        point = load().incumbent_point()
        assert point["threshold"] == 3.9
        assert point["w_token"] == 1.0
        assert point["bridgeness"] == 1.0

    def test_incumbent_point_clipped_into_bounds(self):
        point = load(environ={"HARMONIZER_GRAPH_THRESHOLD": "10.0"}).incumbent_point()
        assert point["threshold"] == 5.0

    def test_every_dimension_has_a_config_key(self):
        # Each dimension stands for one float config key, so the incumbent
        # never needs a fallback value, and its box is not empty.
        for name, (path, lo, hi) in TUNED.items():
            node = DEFAULTS
            for key in path:
                node = node[key]
            assert isinstance(node, float), name
            assert lo < hi, name

    def test_score_bound_is_configured_weights_and_threshold(self):
        config = load(environ={"HARMONIZER_GRAPH_THRESHOLD": "3.5", "HARMONIZER_MATCH_WEIGHTS_COS": "0.8"})
        assert config.score_bound() == ScoreBound(WeightVector(cos=0.8), 3.5)

    def test_tuning_score_bound_is_most_permissive_corner(self, monkeypatch):
        assert load().tuning_score_bound() == ScoreBound(WeightVector(), 0.5)
        narrowed = {"w_cos": (0.1, 0.3), "w_domain": (0.2, 0.6), "threshold": (3.0, 5.0)}
        for name, (lo, hi) in narrowed.items():
            monkeypatch.setitem(TUNED, name, (TUNED[name][0], lo, hi))
        bound = load().tuning_score_bound()
        assert bound == ScoreBound(WeightVector(domain=0.6, cos=0.3), 3.0)

    def test_incumbent_point_inside_space(self):
        SEARCH_SPACE.validate_point(load().incumbent_point())


class _Recording(dict):
    """A config section that adds the dotted path of every key read to
    ``seen``. Iterating or serializing it reads nothing; unpacking it into a
    call (``**section``) reads every key."""

    def __init__(self, data: dict, seen: set, path: str = ""):
        super().__init__(
            (key, _Recording(value, seen, f"{path}{key}.") if isinstance(value, dict) else value)
            for key, value in data.items()
        )
        self.seen = seen
        self.path = path

    def __getitem__(self, key):
        self.seen.add(self.path + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(self.path + key)
        return super().get(key, default)

    def __iter__(self):
        # Not dict's own iterator, so ``**`` reads each key through
        # __getitem__ rather than copying the entries directly.
        return super().__iter__()


def _leaves(node: dict, path: str = "") -> set:
    out = set()
    for key, value in node.items():
        out |= _leaves(value, f"{path}{key}.") if isinstance(value, dict) else {path + key}
    return out


REMOVED_KEYS = [
    ("ingest", "institution_keywords", "data/keywords.txt"),
    ("parse", "interior_strip", True),
    ("match", "cos_on", "raw"),
    ("graph", "prune_rule", "edge_bridgeness"),
    ("graph", "naming", "volume"),
    ("graph", "refine_until_stable", True),
    ("embed", "backend", "hashing"),
    ("embed", "seed", 0),
    ("embed", "vectors_path", "vecs.tsv"),
    ("embed", "strict_vectors", True),
    ("embed", "dim", 256),
    ("embed", "idf_floor", 0.01),
    ("match", "brute_force", True),
    ("tune", "gamma", 0.25),
    ("tune", "n_candidates", 24),
    ("graph", "refine_passes", 1),
    ("tune", "space", "{threshold: [1.0, 4.0]}"),
    ("run", "offline", "false"),
]


class TestEveryKeyRead:
    def test_run_tune_and_provider_read_every_key(self, corpus60_paths, tmp_path, monkeypatch):
        import argparse

        from harmonizer import cli
        from harmonizer.pipeline import run_pipeline, tune_pipeline
        from test_pipeline import _CannedProvider

        seen: set = set()

        def recorded(overrides):
            data = PipelineConfig.load(corpus60_paths["config"], environ={}, overrides=overrides).data
            return PipelineConfig(_Recording(data, seen))

        paths = (corpus60_paths["input"], corpus60_paths["cache"])
        run_pipeline(recorded(None), *paths, tmp_path / "out", gold_path=corpus60_paths["gold"])
        tune_pipeline(recorded({"tune": {"trials": 2}}), *paths, corpus60_paths["gold"])

        # augment builds its provider from every provider key and fetches on
        # run.threads threads.
        monkeypatch.setattr(cli, "HtmlSearchProvider", lambda **settings: _CannedProvider())
        online = recorded({"augment": {"provider": {"endpoint": "https://search.example/s"}}})
        args = argparse.Namespace(input=corpus60_paths["input"], cache=tmp_path / "cache.jsonl", offline=False, refresh=False)
        assert cli._cmd_augment(args, online) == cli.EXIT_OK

        assert _leaves(DEFAULTS) - seen == set()

    @pytest.mark.parametrize("section,key,value", REMOVED_KEYS, ids=[f"{s}.{k}" for s, k, _ in REMOVED_KEYS])
    def test_removed_key_rejected(self, tmp_path, section, key, value):
        # A section left with no keys goes as a whole.
        with pytest.raises(ConfigError, match=rf"unknown config key '{section}(\.{key})?'"):
            load(tmp_path, f"{section}:\n  {key}: {value}\n")

    @pytest.mark.parametrize("section,key,value", REMOVED_KEYS, ids=[f"{s}.{k}" for s, k, _ in REMOVED_KEYS])
    def test_removed_key_env_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match="no config key matches"):
            load(environ={f"{ENV_PREFIX}{section}_{key}".upper(): str(value)})
