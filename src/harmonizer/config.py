"""Run configuration: layered defaults -> YAML file -> environment overrides.

Environment variables use the ``HARMONIZER_<SECTION>_<KEY>`` convention
(``HARMONIZER_GRAPH_THRESHOLD=2.5``, ``HARMONIZER_MATCH_WEIGHTS_COS=0.8``);
values are parsed as YAML scalars. Unknown keys, type mismatches and values out
of range are rejected as the config loads, and what shapes a run is hashable.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import yaml

from .augment import _parse_selector
from .errors import ConfigError
from .match import Params

ENV_PREFIX = "HARMONIZER_"

DEFAULTS: dict[str, Any] = {
    "run": {
        "seed": 0,
        "threads": 1,
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
    },
}

# The box ``tune`` searches: each dimension, named as the ``match.Params``
# field it fills, with its config key and its bounds, in the order TPE draws
# them. Bounds: weights stay in [0.1, 1]; the threshold spans
# the useful score range; resolution reaches past 1 so communities can be
# forced smaller; bridgeness above 1 loosens pruning. Bridgeness is never
# negative, so a point below 0 flags every node and breaks each community of
# more than 2 members into singletons.
TUNED: dict[str, tuple[tuple[str, ...], float, float]] = {
    "w_token": (("match", "weights", "token"), 0.1, 1.0),
    "w_first_token": (("match", "weights", "first_token"), 0.1, 1.0),
    "w_url_text": (("match", "weights", "url_text"), 0.1, 1.0),
    "w_domain": (("match", "weights", "domain"), 0.1, 1.0),
    "w_cos": (("match", "weights", "cos"), 0.1, 1.0),
    "threshold": (("graph", "threshold"), 0.5, 5.0),
    "resolution": (("graph", "resolution"), 0.001, 2.0),
    "bridgeness": (("graph", "bridgeness_threshold"), -2.0, 2.0),
    "location_boost": (("graph", "location_boost"), 0.0, 2.0),
}
SEARCH_SPACE = tuple((name, lo, hi) for name, (_, lo, hi) in TUNED.items())
# The legal range of every bounded key: a comparison and its bound. Every
# float key must also be finite; the seed and the two graph thresholds take
# any other value.
RANGES: dict[str, tuple[str, int]] = {
    "run.threads": (">=", 1),
    "augment.blocklist_k": (">=", 0),
    "augment.provider.rate_limit_per_s": (">", 0),
    "augment.provider.timeout_s": (">", 0),
    "augment.provider.retries": (">=", 0),
    "parse.common_words_n": (">=", 0),
    **{f"match.weights.{name}": (">=", 0) for name in DEFAULTS["match"]["weights"]},
    "graph.resolution": (">", 0),
    "graph.location_boost": (">=", 0),
    "tune.n_startup": (">=", 0),
    "tune.trials": (">=", 1),
}
# Keys that hold a CSS selector, parsed as the config loads.
SELECTORS = {"augment.provider.suggestion_selector", "augment.provider.result_selector"}


def _paths(node: Mapping, prefix: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
    """The path of every section and key under ``node``, depth first."""
    out = []
    for key, value in node.items():
        out.append(prefix + (key,))
        if isinstance(value, dict):
            out.extend(_paths(value, prefix + (key,)))
    return out


# Each section's and key's environment spelling: the prefix, then its path
# joined by "_" and upper-cased (keys hold underscores themselves).
_ENV_PATHS = {ENV_PREFIX + "_".join(path).upper(): path for path in _paths(DEFAULTS)}
assert len(_ENV_PATHS) == len(_paths(DEFAULTS)), "two config paths share an environment spelling"


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
    # A key whose default is None (a path) takes null or the path of a UTF-8
    # file; every other default pins its type, and RANGES bounds a number.
    if value is None:
        if default is None:
            return None
        raise ConfigError(f"config key {path!r} may not be null")
    if default is None:
        if not isinstance(value, str):
            raise ConfigError(f"config key {path!r} must be a path string")
        _read_text(Path(value), path)
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key {path!r} must be a string, got {value!r}")
        if path in SELECTORS:
            _parse_selector(value, path)
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {path!r} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path} must be finite, got an integer of {value.bit_length()} bits") from None
        if not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, got {value}")
    elif isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {path!r} must be an integer, got {value!r}")
    if path in RANGES:
        op, bound = RANGES[path]
        if not (value > bound if op == ">" else value >= bound):
            raise ConfigError(f"{path} must be {op} {bound}, got {value}")
    return value


def _read_text(path: Path, what: str) -> str:
    """The text of the UTF-8 file at ``path``; ConfigError, naming ``what``,
    when there is no file there or it cannot be read as UTF-8."""
    if not path.is_file():
        raise ConfigError(f"{what}: {path} is not a file" if path.exists() else f"{what}: file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what}: cannot read {path}: {exc}") from None


def checked(path: str, value: Any) -> Any:
    """``value`` checked for the dotted key ``path`` as a config layer sets it."""
    return _coerce(_at(DEFAULTS, path.split(".")), value, path)


def _apply_env(config: dict, environ: Mapping[str, str]) -> dict:
    out = copy.deepcopy(config)
    for env_name in sorted(environ):
        key = env_name.upper()
        if not key.startswith(ENV_PREFIX):
            continue
        try:
            raw = yaml.safe_load(environ[env_name])
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {env_name}: {exc}")
        path = _ENV_PATHS.get(key)
        if path is None:
            raise ConfigError(f"{env_name}: no config key matches '{key[len(ENV_PREFIX):].lower()}'")
        dotted = ".".join(path)
        if isinstance(_at(DEFAULTS, path), dict):
            raise ConfigError(f"{env_name}: '{dotted}' is a section, not a key")
        _at(out, path[:-1])[path[-1]] = checked(dotted, raw)
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
        path: str | Path | None,
        environ: Optional[Mapping[str, str]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> "PipelineConfig":
        """Defaults, then the YAML file, then HARMONIZER_* environment keys,
        then hard overrides (CLI flags)."""
        resolved = copy.deepcopy(DEFAULTS)
        if path is not None:
            path = Path(path)
            text = _read_text(path, "config")
            try:
                loaded = yaml.safe_load(text)
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

    def run_settings(self) -> dict[str, Any]:
        """The keys that shape what a run writes, which its manifest records."""
        settings = {section: self.data[section] for section in ("parse", "match", "graph")}
        settings["run"] = {"seed": self.data["run"]["seed"]}
        settings["augment"] = {"blocklist_k": self.data["augment"]["blocklist_k"]}
        return settings

    def canonical_json(self) -> str:
        return json.dumps(self.run_settings(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # --- typed builders ---

    def params_at(self, point: Mapping[str, float]) -> Params:
        """The parameters at a point of the search box, with the configured
        seed; a dimension the point lacks (all of them, for ``{}``, which
        ``run`` uses) takes its configured value."""
        values = {name: point.get(name, _at(self.data, path)) for name, (path, _, _) in TUNED.items()}
        return Params(**values, seed=self.data["run"]["seed"])

    def tuning_score_bound(self) -> Params:
        """The most permissive corner of the search box: every tuned weight at
        its upper bound and the threshold at its lower bound. A pair that can
        reach no trial's threshold under this corner can reach none."""
        corner = {
            name: lo if name == "threshold" else hi
            for name, (path, lo, hi) in TUNED.items()
            if name == "threshold" or path[0] == "match"
        }
        return self.params_at(corner)

    def incumbent_point(self) -> dict[str, float]:
        """The current config expressed as a search-space point (clipped into
        bounds so it is always a legal trial)."""
        return {name: min(max(_at(self.data, path), lo), hi) for name, (path, lo, hi) in TUNED.items()}
