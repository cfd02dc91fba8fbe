"""Run configuration: layered defaults -> YAML file -> environment overrides.

Environment variables use the ``HARMONIZER_<SECTION>_<KEY>`` convention
(``HARMONIZER_GRAPH_THRESHOLD=2.5``, ``HARMONIZER_MATCH_WEIGHTS_COS=0.8``);
values are parsed as YAML scalars. Unknown keys anywhere are rejected, and the
fully resolved config is serializable and hashable for the run manifest.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import yaml

from .errors import ConfigError
from .graph import FilterParams
from .match import ScoreBound, WeightVector
from .tune import DEFAULT_SPACE, SearchSpace, TpeConfig

ENV_PREFIX = "HARMONIZER_"

DEFAULTS: dict[str, Any] = {
    "run": {
        "seed": 0,
        "threads": 1,
        "offline": False,
    },
    "augment": {
        "blocklist_k": 100,
        "provider": {
            "endpoint": "",
            "query_param": "q",
            "suggestion_selector": "a.spelling-suggestion",
            "result_selector": "a.result-link",
            "rate_limit_per_s": 1.0,
            "timeout_s": 10.0,
            "retries": 3,
        },
    },
    "parse": {
        "common_words_n": 250,
        "designators": None,
    },
    "match": {
        "weights": {
            "token": 1.0,
            "first_token": 1.0,
            "url_text": 1.0,
            "domain": 1.0,
            "cos": 1.0,
        },
    },
    "graph": {
        "threshold": 3.9,
        "resolution": 1.0,
        "bridgeness_threshold": 1.0,
        "location_boost": 1.0,
    },
    "tune": {
        "n_startup": 10,
        "trials": 50,
        "space": {name: [lo, hi] for name, lo, hi in DEFAULT_SPACE},
    },
}

# The config key each search dimension stands for. The last part of each
# path is the WeightVector or FilterParams field the dimension fills.
TUNED_KEYS: dict[str, tuple[str, ...]] = {
    "w_token": ("match", "weights", "token"),
    "w_first_token": ("match", "weights", "first_token"),
    "w_url_text": ("match", "weights", "url_text"),
    "w_domain": ("match", "weights", "domain"),
    "w_cos": ("match", "weights", "cos"),
    "threshold": ("graph", "threshold"),
    "resolution": ("graph", "resolution"),
    "bridgeness": ("graph", "bridgeness_threshold"),
    "location_boost": ("graph", "location_boost"),
}


def _merge(base: dict, override: Mapping, path: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        current = base[key]
        if isinstance(current, dict):
            if not isinstance(value, Mapping):
                raise ConfigError(f"config key {here!r} must be a mapping")
            out[key] = _merge(current, value, here)
        else:
            out[key] = _coerce(current, value, here)
    return out


def _coerce(default: Any, value: Any, path: str) -> Any:
    # A key whose default is None (a path) takes null or any string; every
    # other default pins its type.
    if value is None:
        if default is None:
            return None
        raise ConfigError(f"config key {path!r} may not be null")
    if default is None:
        if not isinstance(value, str):
            raise ConfigError(f"config key {path!r} must be a path string")
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"config key {path!r} must be a boolean, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {path!r} must be an integer, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {path!r} must be a number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key {path!r} must be a string, got {value!r}")
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {path!r} must be a list, got {value!r}")
        return list(value)
    raise ConfigError(f"config key {path!r} has unsupported type {type(default).__name__}")


def _apply_env(config: dict, environ: Mapping[str, str]) -> dict:
    out = copy.deepcopy(config)
    for env_name in sorted(environ):
        if not env_name.startswith(ENV_PREFIX):
            continue
        dotted = env_name[len(ENV_PREFIX):].lower()
        try:
            raw = yaml.safe_load(environ[env_name])
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {env_name}: {exc}")
        node = out
        parts = dotted.split("_")
        # Greedily match underscore-joined path segments against known keys
        # (keys themselves contain underscores, e.g. blocklist_k).
        path: list[str] = []
        i = 0
        while i < len(parts):
            matched = None
            for j in range(len(parts), i, -1):
                candidate = "_".join(parts[i:j])
                if isinstance(node, dict) and candidate in node:
                    matched = (candidate, j)
                    break
            if matched is None:
                raise ConfigError(f"{env_name}: no config key matches '{dotted}'")
            key, i = matched
            path.append(key)
            if i < len(parts):
                node = node[key]
                if not isinstance(node, dict):
                    raise ConfigError(f"{env_name}: '{'.'.join(path)}' is not a section")
            else:
                if isinstance(node[key], dict):
                    raise ConfigError(f"{env_name}: '{'.'.join(path)}' is a section, not a key")
                node[key] = _coerce(_at(DEFAULTS, path), raw, ".".join(path))
    return out


def _at(node: Any, path: Sequence[str]) -> Any:
    for key in path:
        node = node[key]
    return node


class PipelineConfig:
    """Resolved configuration with typed accessors for the pipeline stages."""

    def __init__(self, data: dict[str, Any]):
        self.data = data

    @classmethod
    def load(
        cls,
        path: str | Path | None = None,
        environ: Optional[Mapping[str, str]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> "PipelineConfig":
        """Defaults, then the YAML file, then HARMONIZER_* environment keys,
        then hard overrides (CLI flags)."""
        resolved = copy.deepcopy(DEFAULTS)
        if path is not None:
            path = Path(path)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                loaded = yaml.safe_load(path.read_text(encoding="utf-8"))
            except yaml.YAMLError as exc:
                raise ConfigError(f"cannot parse {path}: {exc}")
            if loaded is None:
                loaded = {}
            if not isinstance(loaded, Mapping):
                raise ConfigError(f"{path}: top level must be a mapping")
            resolved = _merge(resolved, loaded, "")
        resolved = _apply_env(resolved, environ if environ is not None else os.environ)
        if overrides:
            resolved = _merge(resolved, overrides, "")
        return cls(resolved)

    def __getitem__(self, section: str) -> Any:
        return self.data[section]

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # --- typed builders ---

    def weight_vector(self) -> WeightVector:
        return WeightVector(**self.data["match"]["weights"])

    def score_bound(self) -> ScoreBound:
        """The configured weights and edge threshold, which ``run`` uses."""
        return ScoreBound(self.weight_vector(), self.data["graph"]["threshold"])

    def tuning_score_bound(self) -> ScoreBound:
        """The most permissive corner of the search box: every tuned weight at
        its upper bound and the threshold at its lower bound. A pair that can
        reach no trial's threshold under this corner can reach none."""
        corner = {
            name: lo if name == "threshold" else hi
            for name, lo, hi in self.search_space().dims
            if name == "threshold" or TUNED_KEYS[name][0] == "match"
        }
        weights, params = self.tuning_params_as_config(corner)
        return ScoreBound(weights, params.threshold)

    def filter_params(self) -> FilterParams:
        return self.tuning_params_as_config({})[1]

    def search_space(self) -> SearchSpace:
        space = self.data["tune"]["space"]
        dims = []
        for name in space:
            bounds = space[name]
            if not isinstance(bounds, list) or len(bounds) != 2:
                raise ConfigError(f"tune.space.{name} must be [lo, hi]")
            dims.append((name, float(bounds[0]), float(bounds[1])))
        return SearchSpace(dims)

    def tpe_config(self) -> TpeConfig:
        return TpeConfig(n_startup=self.data["tune"]["n_startup"], seed=self.data["run"]["seed"])

    def tuning_params_as_config(self, params: Mapping[str, float]) -> tuple[WeightVector, FilterParams]:
        """Interpret one search-space point as weights + filter parameters,
        falling back to the configured value for any dimension not tuned."""
        fields: dict[str, dict[str, float]] = {"match": {}, "graph": {}}
        for name, path in TUNED_KEYS.items():
            fields[path[0]][path[-1]] = params.get(name, _at(self.data, path))
        return WeightVector(**fields["match"]), FilterParams(**fields["graph"], seed=self.data["run"]["seed"])

    def incumbent_point(self, space: SearchSpace) -> dict[str, float]:
        """The current config expressed as a search-space point (clipped into
        bounds so it is always a legal trial)."""
        return {name: min(max(_at(self.data, TUNED_KEYS[name]), lo), hi) for name, lo, hi in space.dims}
