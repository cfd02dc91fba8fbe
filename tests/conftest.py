"""Shared fixtures: committed corpora, configs, and a pipeline runner."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from harmonizer.augment import AugmentationCache
from harmonizer.config import PipelineConfig
from harmonizer.embed import compute_idf
from harmonizer.ingest import AssigneeRecord, load_assignee_table, load_gold_standard
from harmonizer.match import Corpus
from harmonizer.parse import document_frequencies
from harmonizer.pipeline import run_pipeline

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def corpus300_paths() -> dict:
    return {
        "input": DATA / "corpus300.tsv",
        "gold": DATA / "corpus300_gold.tsv",
        "cache": DATA / "corpus300_cache.jsonl",
        "config": DATA / "corpus300.yaml",
    }


@pytest.fixture(scope="session")
def corpus60_paths() -> dict:
    return {
        "input": DATA / "corpus60.tsv",
        "gold": DATA / "corpus60_gold.tsv",
        "cache": DATA / "corpus60_cache.jsonl",
        "config": DATA / "corpus60.yaml",
    }


@pytest.fixture(scope="session")
def corpus300_records(corpus300_paths):
    return load_assignee_table(corpus300_paths["input"])


@pytest.fixture(scope="session")
def corpus300_gold(corpus300_paths):
    return load_gold_standard(corpus300_paths["gold"])


@pytest.fixture(scope="session")
def corpus300_config(corpus300_paths) -> PipelineConfig:
    return PipelineConfig.load(corpus300_paths["config"])


@pytest.fixture(scope="session")
def corpus60_config(corpus60_paths) -> PipelineConfig:
    return PipelineConfig.load(corpus60_paths["config"])


def corpus_idf(names) -> dict[str, float]:
    """The idf weights ``prepare_corpus`` gives the tokens of ``names``."""
    return compute_idf(document_frequencies(names), len(names))


def domain_columns(infos) -> tuple[np.ndarray, list[frozenset[str]]]:
    """The ``domain`` and ``url_tokens`` columns of ``infos``, one
    ``oracles.PageInfo`` per record, as ``build_domain_info`` makes them:
    domains coded by first appearance, -1 for None."""
    codes: dict[str, int] = {}
    domain = [-1 if info.domain is None else codes.setdefault(info.domain, len(codes)) for info in infos]
    return np.array(domain, dtype=np.int64), [info.url_tokens for info in infos]


def make_corpus(ids, names, type1, infos, vectors, candidates=(), locations=None) -> Corpus:
    """The ``Corpus`` of ``names``, their classes ``type1``, the columns of
    ``infos`` (one ``oracles.PageInfo`` each) and ``vectors`` with the given
    candidate pairs (none by default) and a record for every id of ``ids``,
    which holds the location keys ``locations`` gives it (none by default)."""
    locations = locations or {}
    records = [AssigneeRecord(rid, f"NAME {rid}", 0, frozenset(locations.get(rid, ()))) for rid in ids]
    candidates = np.asarray(candidates, dtype=np.int32).reshape(-1, 2)
    return Corpus(records, names, np.asarray(type1, dtype=bool), *domain_columns(infos), vectors, candidates)


def read_pairs_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    """pairs.tsv as its header and rows of fields."""
    header, *rows = (line.split("\t") for line in path.read_text(encoding="utf-8").splitlines())
    return header, rows


def run_fixture_pipeline(paths: dict, out_dir: Path, overrides: dict | None = None,
                         with_gold: bool = True) -> dict:
    """Run the full pipeline on a committed corpus; return parsed artifacts."""
    config = PipelineConfig.load(paths["config"], overrides=overrides or {})
    run_pipeline(
        config,
        input_path=paths["input"],
        cache_path=paths["cache"],
        out_dir=out_dir,
        gold_path=paths["gold"] if with_gold else None,
    )
    out = {"dir": out_dir}
    for name in ("summary", "manifest"):
        out[name] = json.loads((out_dir / f"{name}.json").read_text())
    if with_gold:
        out["eval"] = json.loads((out_dir / "eval.json").read_text())
    out["mapping_bytes"] = (out_dir / "mapping.tsv").read_bytes()
    return out


@pytest.fixture(scope="session")
def corpus300_run(corpus300_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("run300")
    return run_fixture_pipeline(corpus300_paths, out)


@pytest.fixture(scope="session")
def corpus60_run(corpus60_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("run60")
    return run_fixture_pipeline(corpus60_paths, out)


@pytest.fixture()
def fresh_cache(tmp_path) -> AugmentationCache:
    return AugmentationCache(tmp_path / "cache.jsonl")
