"""Tests for the end-to-end pipeline: artifacts, manifest, determinism,
failure cleanup, and the tuning objective."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DESIGNATORS, PROVIDER, read_pairs_tsv, run_fixture_pipeline
from harmonizer import augment, embed
from harmonizer.augment import AugmentationCache, AugmentationResult, HtmlSearchProvider, SearchProvider, fetch_names
from harmonizer.cli import make_provider
from harmonizer.config import SEARCH_SPACE, PipelineConfig
from harmonizer.errors import ConfigError, InputError, ProviderError, StageError
from harmonizer.evaluation import GoldPairs, build_report
from harmonizer.graph import Partition, build_graph, refine_communities
from harmonizer.ingest import ASSIGNEE_HEADER, AssigneeRecord, load_assignee_table, load_gold_standard, read_tsv, write_tsv
from harmonizer.match import PAIRS_HEADER, score_pairs
from harmonizer.parse import clean_name
from harmonizer.pipeline import _dependency_versions
from harmonizer.pipeline import (
    CLEANED_HEADER,
    MAPPING_HEADER,
    RunManifest,
    _augment_stage,
    build_tuning_objective,
    prepare_corpus,
    read_mapping,
    run_pipeline,
    summarize_mapping,
    tune_pipeline,
    write_mapping,
)
from oracles import (
    brute_f1,
    brute_force_candidates,
    brute_pairwise_confusion,
    ordered_norm,
    reference_prepare,
)

ARTIFACTS = ["cleaned.tsv", "pairs.tsv", "mapping.tsv", "summary.json", "eval.json", "manifest.json"]


class TestArtifacts:
    def test_all_artifacts_written(self, corpus60_run):
        for name in ARTIFACTS:
            assert (corpus60_run["dir"] / name).exists(), name

    def test_cleaned_table(self, corpus60_run):
        lines = (corpus60_run["dir"] / "cleaned.tsv").read_text().splitlines()
        assert lines[0].split("\t") == CLEANED_HEADER
        assert len(lines) == 61
        ids = [line.split("\t")[0] for line in lines[1:]]
        assert ids == sorted(ids)

    def test_pairs_table_reads_back(self, corpus60_run):
        header, rows = read_pairs_tsv(corpus60_run["dir"] / "pairs.tsv")
        assert header == PAIRS_HEADER
        assert rows and all(len(row) == len(PAIRS_HEADER) for row in rows)
        assert all(a < b for a, b, *_ in rows)
        assert [row[:2] for row in rows] == sorted(row[:2] for row in rows)

    def test_pairs_table_holds_the_edges(self, corpus60_run, corpus60_config):
        """pairs.tsv holds the scored pairs that reached the edge threshold,
        one row per graph edge, not every candidate."""
        _, rows = read_pairs_tsv(corpus60_run["dir"] / "pairs.tsv")
        assert all(float(row[-1]) >= corpus60_config["graph"]["threshold"] for row in rows)
        counts = corpus60_run["manifest"]["stage_counts"]
        assert len(rows) == counts["edges"] < counts["candidate_pairs"]

    def test_mapping_covers_every_record(self, corpus60_run, corpus60_paths):
        rows = read_mapping(corpus60_run["dir"] / "mapping.tsv")
        records = load_assignee_table(corpus60_paths["input"])
        assert {row["record_id"] for row in rows} == {r.record_id for r in records}
        assert len({row["community_id"] for row in rows}) == 12
        assert all(row["canonical_name"] for row in rows)

    def test_summary_shape(self, corpus60_run):
        summary = corpus60_run["summary"]
        assert summary["n_records"] == 60
        assert summary["n_communities"] == 12
        assert summary["reduction_rate"] == pytest.approx(0.8)
        largest = summary["largest_communities"]
        assert len(largest) == 10
        sizes = [c["size"] for c in largest]
        assert sizes == sorted(sizes, reverse=True)
        assert {"community_id", "size", "canonical_name", "portfolio"} <= set(largest[0])

    def test_eval_report(self, corpus60_run):
        report = corpus60_run["eval"]
        assert report["f1"] == 1.0
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert report["reduction"] == {"n_before": 60, "n_after": 12, "rate": pytest.approx(0.8)}

    def test_manifest_hashes_inputs_and_outputs(self, corpus60_run, corpus60_paths):
        manifest = corpus60_run["manifest"]
        inputs = manifest["inputs"]
        assert {str(corpus60_paths[k]) for k in ("input", "gold", "cache")} == set(inputs)
        for path, digest in manifest["outputs"].items():
            actual = hashlib.sha256(open(path, "rb").read()).hexdigest()
            assert actual == digest
        assert len(manifest["outputs"]) == 5

    def test_manifest_config_hash_and_seed(self, corpus60_run, corpus60_paths):
        manifest = corpus60_run["manifest"]
        config = PipelineConfig.load(corpus60_paths["config"])
        assert manifest["config_hash"] == config.config_hash()
        assert manifest["seed"] == 0
        assert manifest["package_version"]

    def test_manifest_config_hashes_to_config_hash(self, corpus60_run, corpus60_paths):
        # The run settings read back from manifest.json are the ones hashed.
        manifest = corpus60_run["manifest"]
        canonical = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == manifest["config_hash"]
        assert manifest["config"] == PipelineConfig.load(corpus60_paths["config"]).run_settings()
        assert {section: set(keys) for section, keys in manifest["config"].items()} == {
            "run": {"seed"},
            "augment": {"blocklist_k"},
            "parse": {"common_words_n", "designators"},
            "match": {"weights"},
            "graph": {"threshold", "resolution", "bridgeness_threshold", "location_boost"},
        }

    def test_config_hash_covers_only_what_shapes_a_run(self, corpus60_run, corpus60_paths, tmp_path, monkeypatch):
        # run.threads and the provider keys reach only augment; the threshold
        # shapes the run.
        monkeypatch.setenv("HARMONIZER_RUN_THREADS", "4")
        monkeypatch.setenv("HARMONIZER_AUGMENT_PROVIDER_ENDPOINT", "https://search.example/s")
        base = corpus60_run["manifest"]
        same = run_fixture_pipeline(corpus60_paths, tmp_path / "same")["manifest"]
        assert same["config_hash"] == base["config_hash"] and same["config"] == base["config"]
        moved = run_fixture_pipeline(corpus60_paths, tmp_path / "moved", overrides={"graph": {"threshold": 3.8}})
        assert moved["manifest"]["config_hash"] != same["config_hash"]

    def test_manifest_stage_counts(self, corpus60_run):
        counts = corpus60_run["manifest"]["stage_counts"]
        assert set(counts) == {
            "records", "augmented", "corrected", "type1", "type2", "degenerate", "vector_rows",
            "candidate_pairs", "edges", "communities",
        }
        assert counts["records"] == 60
        assert counts["augmented"] == 60
        assert counts["corrected"] == 0
        assert counts["type1"] == 60
        assert counts["type2"] == 0
        assert counts["degenerate"] == 0
        assert counts["vector_rows"] == 36
        assert counts["communities"] == 12
        assert counts["candidate_pairs"] >= counts["edges"] > 0
        assert counts["candidate_pairs"] == corpus60_run["manifest"]["blocking"]["candidate_pairs"]

    def test_manifest_blocking_and_versions(self, corpus60_run):
        import numpy

        manifest = corpus60_run["manifest"]
        blocking = manifest["blocking"]
        assert blocking["keys"] and set(blocking["keys"]) <= {"first_token", "token", "domain", "url"}
        assert blocking["candidate_pairs"] == manifest["stage_counts"]["candidate_pairs"]
        assert 2 <= blocking["largest_block"] <= 60
        # Pair keys per chosen kind before deduplication: each candidate is at least one.
        assert set(blocking["pair_keys"]) == set(blocking["keys"])
        assert sum(blocking["pair_keys"].values()) >= blocking["candidate_pairs"]
        assert blocking["pair_keys"] == {"token": 192}
        versions = manifest["versions"]
        assert versions["numpy"] == numpy.__version__
        assert versions["python"].count(".") == 2
        # Louvain is the package's own, so networkx no longer shapes the output.
        assert set(versions) == {"numpy", "python"}

    def test_manifest_filter_counts(self, corpus60_run):
        # corpus60 has no bridge nodes: nothing is flagged, pruned or split.
        manifest = corpus60_run["manifest"]
        stats = manifest["filter"]
        assert (stats["flagged_nodes"], stats["pruned_edges"], stats["communities_split"]) == (0, 0, 0)
        sizes = {int(size): count for size, count in stats["community_sizes"].items()}
        assert sum(sizes.values()) == manifest["stage_counts"]["communities"]
        assert sum(size * count for size, count in sizes.items()) == 60

    def test_manifest_layer_seconds(self, corpus300_paths, tmp_path):
        """Disjoint layers that cover the run: they sum to no more than its
        wall time, and only the manifest write and the final moves are left
        out."""
        config = PipelineConfig.load(corpus300_paths["config"], environ={})
        start = time.perf_counter()
        manifest = run_pipeline(
            config, corpus300_paths["input"], corpus300_paths["cache"], tmp_path, gold_path=corpus300_paths["gold"]
        )
        wall = time.perf_counter() - start
        layers = manifest.layer_seconds
        assert set(layers) == {
            "ingest", "augment", "parse", "domain", "embed", "block", "score",
            "graph", "naming", "write", "summary", "evaluate",
        }
        assert all(v >= 0 for v in layers.values())
        # Each value is rounded to 1e-6 s.
        assert 0.5 * wall <= sum(layers.values()) <= wall + len(layers) * 1e-6

    def test_manifest_layer_rss_mb(self, corpus60_paths, tmp_path):
        """The peak RSS after each timed layer, in the order the layers last
        ran: a high-water mark, so it never falls."""
        config = PipelineConfig.load(corpus60_paths["config"], environ={})
        manifest = run_pipeline(
            config, corpus60_paths["input"], corpus60_paths["cache"], tmp_path, gold_path=corpus60_paths["gold"]
        )
        rss = manifest.layer_rss_mb
        assert set(rss) == set(manifest.layer_seconds)
        assert list(rss.values()) == sorted(rss.values()) and rss["ingest"] > 0
        assert json.loads((tmp_path / "manifest.json").read_text())["layer_rss_mb"] == rss

    def test_manifest_layer_full_collections(self, corpus60_paths, tmp_path, monkeypatch):
        """The generation-2 collections started in each timed layer: a full
        collection made while the mapping is written counts in ``write``,
        none counts twice, and the run's hook is gone once it returns."""
        import harmonizer.pipeline as pipeline_mod

        config = PipelineConfig.load(corpus60_paths["config"], environ={})
        write_mapping = pipeline_mod.write_mapping

        def collect_then_write(*args):
            gc.collect()
            write_mapping(*args)

        monkeypatch.setattr(pipeline_mod, "write_mapping", collect_then_write)
        hooks = list(gc.callbacks)
        before = gc.get_stats()[2]["collections"]
        manifest = run_pipeline(config, corpus60_paths["input"], corpus60_paths["cache"], tmp_path, None)
        counts = manifest.layer_full_collections
        assert list(counts) == list(manifest.layer_seconds)
        assert all(type(v) is int and v >= 0 for v in counts.values()) and counts["write"] >= 1
        assert sum(counts.values()) <= gc.get_stats()[2]["collections"] - before
        assert json.loads((tmp_path / "manifest.json").read_text())["layer_full_collections"] == counts
        assert gc.callbacks == hooks

    def test_no_eval_without_gold(self, corpus60_paths, tmp_path):
        run = run_fixture_pipeline(corpus60_paths, tmp_path, with_gold=False)
        assert not (tmp_path / "eval.json").exists()
        assert len(run["manifest"]["outputs"]) == 4
        assert "evaluate" not in run["manifest"]["layer_seconds"]


KERNEL_SCRIPT = """
import hashlib, json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import corpus
from harmonizer.config import PipelineConfig
from harmonizer.pipeline import run_pipeline

data = Path(sys.argv[2])
runs = {name: (data / f"{name}.yaml", data / f"{name}.tsv", data / f"{name}_cache.jsonl", data / f"{name}_gold.tsv")
        for name in ("corpus60", "corpus300")}
draw = corpus.write_corpus(corpus.hub_rows(1, n_big=7, n_pairs=2, n_singletons=48), corpus.HUB_CONFIG, Path("in"), 1)
runs["hub"] = (draw.config, draw.records, draw.cache, draw.gold)
digests = {}
for name, (config, records, cache, gold) in runs.items():
    run_pipeline(PipelineConfig.load(config, environ={}), records, cache, Path(name), gold_path=gold)
    for artifact in ("cleaned.tsv", "pairs.tsv", "mapping.tsv", "summary.json", "eval.json"):
        digests[f"{name}/{artifact}"] = hashlib.sha256((Path(name) / artifact).read_bytes()).hexdigest()
print(json.dumps(digests))
"""

# The kernels OpenBLAS can be told to use on x86-64, newest first.
BLAS_KERNELS = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Nehalem", "Prescott")


class TestDeterminism:
    def test_artifacts_match_under_every_blas_kernel(self, data_dir, tmp_path):
        """corpus60, corpus300 and the hub draw of
        ``test_hub_draw_prunes_and_splits`` give the same data artifacts
        whichever kernel OpenBLAS runs; ``OPENBLAS_CORETYPE`` acts on each
        child process alone."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
            print(f"numpy's BLAS ({blas.get('name')}) is no DYNAMIC_ARCH OpenBLAS: the kernels could not be varied")
        env = dict(os.environ, PYTHONPATH=str(Path(embed.__file__).resolve().parent.parent))
        digests = {}
        for kernel in BLAS_KERNELS:
            (tmp_path / kernel).mkdir()
            done = subprocess.run(
                [sys.executable, "-c", KERNEL_SCRIPT, str(Path(__file__).resolve().parent.parent / "perfbench"), str(data_dir)],
                cwd=tmp_path / kernel, env=dict(env, OPENBLAS_CORETYPE=kernel), capture_output=True, text=True, timeout=300,
            )
            if done.returncode == -signal.SIGILL:
                print(f"OPENBLAS_CORETYPE={kernel}: this CPU cannot run the kernel")
                continue
            assert done.returncode == 0, done.stderr
            digests[kernel] = json.loads(done.stdout.splitlines()[-1])
        reference = next(iter(digests.values()))
        assert len(reference) == 15
        for kernel, got in digests.items():
            assert got == reference, kernel

    def test_rerun_is_byte_identical(self, corpus60_run, corpus60_paths, tmp_path):
        rerun = run_fixture_pipeline(corpus60_paths, tmp_path)
        assert rerun["mapping_bytes"] == corpus60_run["mapping_bytes"]
        for name in ("cleaned.tsv", "pairs.tsv", "summary.json", "eval.json"):
            assert (tmp_path / name).read_bytes() == (corpus60_run["dir"] / name).read_bytes(), name

    def test_output_hashes_match_across_runs(self, corpus60_run, corpus60_paths, tmp_path):
        rerun = run_fixture_pipeline(corpus60_paths, tmp_path)
        by_name = lambda m: {p.rsplit("/", 1)[-1]: h for p, h in m["outputs"].items()}
        assert by_name(rerun["manifest"]) == by_name(corpus60_run["manifest"])

    # sha256 of `run` outputs on the committed corpora, under python 3.11.7,
    # numpy 2.4.6 and networkx 3.6.1, whose Louvain the package's
    # transcribes, and the same under every OpenBLAS kernel. mapping.tsv was
    # recorded once naming added cosines in (row, position) order, pairs.tsv
    # before pairs became a columnar table, the other artifacts before
    # evaluation read one GoldPairs.
    PINNED = {
        "corpus60": {
            "mapping.tsv": "cea660bba4471b4d2879d77496a2dd5ad5f57918d8e807fdb7b844294e95ca93",
            "pairs.tsv": "226f814579a599c3174d0cf3cb0917e46be75c7216b56ebaf80c3f4b9fbed239",
            "cleaned.tsv": "c5476e76f63eb8dd42e96535abc9203e6b6a59de1289659aa7a0e93086d22489",
            "summary.json": "3b89f592a460c2487e652873b1c819ac1384c5d3ec16db0f27bc15a180f8ff5e",
            "eval.json": "71873177ce83addeac04ed4379ad03e050494a46d8517c273e0a4afd431e2082",
        },
        "corpus300": {
            "mapping.tsv": "a36a4755f9f7d1dc876a8ae80516fd7c2a750e3df068e675a6a23671f49111cd",
            "pairs.tsv": "3f106b1e6c2d1ee7a981013062aac9f1edc1af967e3e68ae421fd0a9a47a4574",
            "cleaned.tsv": "8837e13d70f59251c298849892c4578a6f671d67b9fd23d9764c0ab04cd64176",
            "summary.json": "e1685acef8b1859ab871a1a7b7669b10abe5a451d7e495d334bdc7ee9c1e8e92",
            "eval.json": "a3a03f5138f6a3ff5d9d09b75f67d42e0b0673b2c22641b0d8b0309ff9c4e0d4",
        },
    }

    @pytest.mark.parametrize("corpus", sorted(PINNED))
    def test_outputs_match_pinned_digests(self, corpus, request):
        run = request.getfixturevalue(f"{corpus}_run")
        versions = ", ".join(f"{k} {v}" for k, v in sorted(_dependency_versions().items()))
        for name, digest in self.PINNED[corpus].items():
            actual = hashlib.sha256((run["dir"] / name).read_bytes()).hexdigest()
            assert actual == digest, (
                f"{corpus} {name} differs from the pinned output ({versions} here; "
                "pinned under networkx 3.6.1, numpy 2.4.6, python 3.11.7)"
            )


    # sha256 of every trial's (params, objective) in a 32-trial `tune` on
    # corpus300 (31 uniform start-up trials, then one TPE proposal), recorded
    # before pruning skipped any bridgeness computation, under the versions
    # above. 17 of the 32 trials draw a bridgeness threshold below 0.
    PINNED_TRIALS = "80366eed133d64dac3acca9749ec0aaaee23ec2b67bfa323c256ac68ab0eb60e"

    def test_tune_trials_match_pinned_digest(self, corpus300_paths):
        overrides = {"tune": {"trials": 32, "n_startup": 31}}
        config = PipelineConfig.load(corpus300_paths["config"], environ={}, overrides=overrides)
        history = tune_pipeline(config, corpus300_paths["input"], corpus300_paths["cache"], corpus300_paths["gold"])
        assert [t.error for t in history.trials] == [None] * 32
        text = json.dumps([[t.params, t.objective] for t in history.trials], sort_keys=True)
        versions = ", ".join(f"{k} {v}" for k, v in sorted(_dependency_versions().items()))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_TRIALS, (
            f"tune trials differ from the pinned ones ({versions} here; "
            "pinned under networkx 3.6.1, numpy 2.4.6, python 3.11.7)"
        )


class TestFailureHandling:
    def test_missing_input_is_input_error(self, tmp_path):
        config = PipelineConfig.load(None, environ={})
        with pytest.raises(InputError):
            run_pipeline(config, tmp_path / "nope.tsv", tmp_path / "cache.jsonl", tmp_path / "out", None)
        assert not (tmp_path / "out").exists()

    def test_empty_table_is_input_error(self, tmp_path):
        table = tmp_path / "empty.tsv"
        table.write_text("record_id\traw_name\tpatent_count\tlocations\n")
        config = PipelineConfig.load(None, environ={})
        with pytest.raises(InputError, match="no records"):
            run_pipeline(config, table, tmp_path / "cache.jsonl", tmp_path / "out", None)

    def test_stage_failure_names_stage_and_cleans_up(self, corpus60_paths, tmp_path, monkeypatch):
        import harmonizer.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise RuntimeError("scorer exploded")

        monkeypatch.setattr(pipeline_mod, "score_pairs", boom)
        config = PipelineConfig.load(corpus60_paths["config"], environ={})
        with pytest.raises(StageError) as excinfo:
            run_pipeline(
                config,
                corpus60_paths["input"],
                corpus60_paths["cache"],
                tmp_path,
                gold_path=corpus60_paths["gold"],
            )
        assert excinfo.value.stage == "match"
        assert not list(tmp_path.iterdir())

    def test_names_whose_vectors_cancel_run(self, corpus60_paths, tmp_path):
        # "b" and "p" hash to exact negatives and get equal idf here, so both
        # names embed to the zero vector, which has no cosine.
        table = tmp_path / "corpus.tsv"
        rows = "r901\tB.P. INC.\t5\t\nr902\tB.P. CORPORATION\t3\t\n"
        table.write_text(corpus60_paths["input"].read_text(encoding="utf-8") + rows, encoding="utf-8")
        config = PipelineConfig.load(corpus60_paths["config"], environ={})
        corpus = prepare_corpus(config, load_assignee_table(table), AugmentationCache(corpus60_paths["cache"]))
        assert all(corpus.vectors[corpus.ids.index(rid)].degenerate for rid in ("r901", "r902"))
        run_pipeline(config, table, corpus60_paths["cache"], tmp_path / "out", None)
        mapping = {row["record_id"]: row for row in read_mapping(tmp_path / "out" / "mapping.tsv")}
        assert len(mapping) == 62
        assert mapping["r902"]["canonical_name"] == "B.P. CORPORATION"
        # Both outputs count them as degenerate, and nothing else on corpus60.
        lines = (tmp_path / "out" / "cleaned.tsv").read_text(encoding="utf-8").splitlines()
        flags = {line.split("\t")[0]: line.split("\t")[3] for line in lines[1:]}
        assert {rid for rid, flag in flags.items() if flag == "1"} == {"r901", "r902"}
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["stage_counts"]["degenerate"] == 2


# Raw names a table row can hold: any character but a control character (a
# tab or line break would split the row) or a surrogate, and not blank.
_NAME_CHARS = st.characters(blacklist_categories=("Cc", "Cs"))
RAW_NAMES = st.one_of(
    st.text(st.characters(whitelist_categories=("Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po")), min_size=1, max_size=6),
    st.text(st.characters(whitelist_categories=("Sm", "Sc", "Sk", "So")), min_size=1, max_size=6),
    st.text(st.characters(whitelist_categories=("Lu", "Ll", "Lo", "Mn", "Mc", "Me")), min_size=1, max_size=8),
    st.lists(st.text(_NAME_CHARS, min_size=1, max_size=6), min_size=2, max_size=3).map("\u3000 ".join),
    st.text(_NAME_CHARS, min_size=300, max_size=600),
    st.sampled_from(["---", "!!!", "ACME INC", "ACME, INC.", "L.L.C.", "株式会社東芝", "😀 GROUP", "A\u0301\u0327"]),
).filter(str.strip)
# A cached result for a name, or none: an odd correction, URL and page text.
RESULTS = st.none() | st.tuples(
    st.none() | RAW_NAMES,
    st.none() | st.sampled_from(["https://www.acme.com/", "http://[bad", "https://..", "acme.co.uk/x"]) | st.text(_NAME_CHARS),
    st.none() | st.text(_NAME_CHARS, max_size=200),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(RAW_NAMES, st.integers(0, 2), RESULTS), min_size=1, max_size=6))
def test_any_raw_names_run_and_map_every_record(tmp_path_factory, rows):
    """Whatever the raw names and their cached results, a run exits cleanly
    with one mapping.tsv and one cleaned.tsv row per record; a name with no
    tokens is a degenerate singleton named by its raw name, and eval.json's
    F1 is the one the mapping gives."""
    work = tmp_path_factory.mktemp("names")
    gold = {f"r{i}": f"E{entity}" for i, (_, entity, _) in enumerate(rows)}
    raw = {f"r{i}": name.strip() for i, (name, _, _) in enumerate(rows)}
    write_tsv(work / "input.tsv", ASSIGNEE_HEADER, [(rid, name, "1", "") for rid, name in raw.items()])
    write_tsv(work / "gold.tsv", ["record_id", "entity_id"], gold.items())
    cache = AugmentationCache(work / "cache.jsonl")
    for name, (_, _, result) in zip(raw.values(), rows):
        if result is not None:
            correction, url, text = result
            cache.put(AugmentationResult(name, correction, url, text if url is not None else None))
    config = PipelineConfig.load(None, environ={})
    run_pipeline(config, work / "input.tsv", work / "cache.jsonl", work / "out", gold_path=work / "gold.tsv")
    mapping = read_mapping(work / "out" / "mapping.tsv")
    assert [(row["record_id"], row["raw_name"]) for row in mapping] == sorted(raw.items())
    cleaned = [fields for _, fields in read_tsv(work / "out" / "cleaned.tsv", CLEANED_HEADER, "cleaned")]
    corrections = {rid: getattr(cache.get(name), "corrected_name", None) for rid, name in raw.items()}
    names = {rid: clean_name(name, corrections[rid], DESIGNATORS) for rid, name in raw.items()}
    assert [fields[0] for fields in cleaned] == sorted(raw)
    for rid, text, name_class, flag in cleaned:
        assert text == names[rid].cleaned and flag in ("0", "1")
        assert flag == "1" or not names[rid].degenerate
        assert names[rid].tokens or (name_class, flag) == ("type2", "1")
    sizes = Counter(row["community_id"] for row in mapping)
    for row in mapping:
        if not names[row["record_id"]].tokens:
            assert sizes[row["community_id"]] == 1 and row["canonical_name"] == row["raw_name"]
    predicted = {row["record_id"]: row["community_id"] for row in mapping}
    report = json.loads((work / "out" / "eval.json").read_text(encoding="utf-8"))
    assert report["f1"] == brute_f1(*brute_pairwise_confusion(predicted, gold))[2]


class TestAtomicOutput:
    def test_rerun_without_gold_removes_stale_eval(self, corpus60_paths, tmp_path):
        run_fixture_pipeline(corpus60_paths, tmp_path)
        assert (tmp_path / "eval.json").exists()
        rerun = run_fixture_pipeline(corpus60_paths, tmp_path, with_gold=False)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(set(ARTIFACTS) - {"eval.json"})
        assert sorted(rerun["manifest"]["outputs"]) == sorted(
            str(tmp_path / name) for name in ARTIFACTS if name not in ("eval.json", "manifest.json")
        )

    def test_failed_rerun_leaves_previous_output(self, corpus60_paths, tmp_path, monkeypatch):
        import harmonizer.pipeline as pipeline_mod

        out = tmp_path / "out"
        run_fixture_pipeline(corpus60_paths, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def boom(*args, **kwargs):
            raise RuntimeError("refinement exploded")

        monkeypatch.setattr(pipeline_mod, "refine_communities", boom)
        with pytest.raises(StageError, match="filter"):
            run_fixture_pipeline(corpus60_paths, out, with_gold=False)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_work_dir_of_a_killed_run_is_removed(self, corpus60_paths, tmp_path, monkeypatch):
        """A run works in .<out>.<pid>.<suffix>; the next run into the same
        --out removes such a sibling whose pid has exited and keeps one whose
        pid is alive, and those of other outputs."""
        import harmonizer.pipeline as pipeline_mod

        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait()
        stale = tmp_path / f".out.{exited.pid}.k1ll3d_x"
        stale.mkdir()
        (stale / "mapping.tsv").write_text("half written")
        kept = [tmp_path / f".out.{os.getpid()}.alive_01", tmp_path / f".other.{exited.pid}.k1ll3d_x"]
        for path in kept:
            path.mkdir()
        seen = []
        real = pipeline_mod.score_pairs

        def spy(*args, **kwargs):
            seen.extend(p.name for p in tmp_path.iterdir() if p not in kept and p.name.startswith(".out."))
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "score_pairs", spy)
        run_fixture_pipeline(corpus60_paths, tmp_path / "out")
        assert len(seen) == 1 and seen[0].startswith(f".out.{os.getpid()}."), seen
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["out"] + [p.name for p in kept])


class TestMappingIo:
    def rows(self):
        partition = Partition([0, 0, 1], canonical={0: "ACME CORP", 1: "ZETA"})
        records = [
            AssigneeRecord(record_id="r1", raw_name="ACME CORP", patent_count=0, locations=frozenset()),
            AssigneeRecord(record_id="r2", raw_name="ACME CORP.", patent_count=0, locations=frozenset()),
            AssigneeRecord(record_id="r3", raw_name="ZETA", patent_count=0, locations=frozenset()),
        ]
        return partition, records

    def test_round_trip(self, tmp_path):
        partition, records = self.rows()
        path = tmp_path / "mapping.tsv"
        write_mapping(partition, records, path)
        rows = read_mapping(path)
        assert [row["record_id"] for row in rows] == ["r1", "r2", "r3"]
        assert rows[0] == {
            "record_id": "r1",
            "raw_name": "ACME CORP",
            "community_id": 0,
            "canonical_name": "ACME CORP",
        }

    def test_non_integer_community_rejected(self, tmp_path):
        path = tmp_path / "mapping.tsv"
        path.write_text("\t".join(MAPPING_HEADER) + "\nr1\tACME\tzero\tACME\n")
        with pytest.raises(InputError, match="bad community_id"):
            read_mapping(path)


class TestSummarizeMapping:
    def mapping_rows(self):
        return [
            {"record_id": "r1", "raw_name": "ACME CORP", "community_id": 0, "canonical_name": "ACME"},
            {"record_id": "r2", "raw_name": "ACME INC", "community_id": 0, "canonical_name": "ACME"},
            {"record_id": "r3", "raw_name": "ZETA", "community_id": 1, "canonical_name": "ZETA"},
        ]

    def test_reduction_and_ordering(self):
        summary = summarize_mapping(self.mapping_rows(), (), 10)
        assert summary["n_records"] == 3
        assert summary["n_communities"] == 2
        assert summary["largest_communities"][0]["community_id"] == 0
        assert summary["largest_communities"][0]["size"] == 2

    def test_sparse_unsorted_ids_and_size_tie(self):
        # Communities 7 and 3 tie on size; the smaller id ranks first.
        rows = [
            {"record_id": rid, "raw_name": rid, "community_id": cid, "canonical_name": f"C{cid}"}
            for rid, cid in (("r1", 7), ("r2", 3), ("r3", 7), ("r4", 3), ("r5", 5))
        ]
        records = [AssigneeRecord(record_id=f"r{i}", raw_name=f"r{i}", patent_count=i, locations=frozenset()) for i in range(1, 6)]
        summary = summarize_mapping(rows, records, 10)
        assert summary["n_records"] == 5
        assert summary["n_communities"] == 3
        assert summary["largest_communities"] == [
            {"community_id": 3, "size": 2, "canonical_name": "C3", "portfolio": 6},
            {"community_id": 7, "size": 2, "canonical_name": "C7", "portfolio": 4},
            {"community_id": 5, "size": 1, "canonical_name": "C5", "portfolio": 5},
        ]

    def test_portfolio_defaults_to_zero_without_records(self):
        summary = summarize_mapping(self.mapping_rows(), (), 10)
        assert all(c["portfolio"] == 0 for c in summary["largest_communities"])

    def test_portfolio_sums_patent_counts(self):
        records = [
            AssigneeRecord(record_id="r1", raw_name="ACME CORP", patent_count=5, locations=frozenset()),
            AssigneeRecord(record_id="r2", raw_name="ACME INC", patent_count=7, locations=frozenset()),
            AssigneeRecord(record_id="r3", raw_name="ZETA", patent_count=1, locations=frozenset()),
        ]
        summary = summarize_mapping(self.mapping_rows(), records, 10)
        assert summary["largest_communities"][0]["portfolio"] == 12

    def test_top_k_limits_listing(self):
        summary = summarize_mapping(self.mapping_rows(), (), top_k=1)
        assert len(summary["largest_communities"]) == 1


class TestMakeProvider:
    def test_no_endpoint_means_no_provider(self):
        config = PipelineConfig.load(None, environ={})
        with pytest.raises(ConfigError, match="augment.provider.endpoint"):
            make_provider(config)

    def test_provider_built_from_config(self):
        config = PipelineConfig.load(
            None,
            environ={
                "HARMONIZER_AUGMENT_PROVIDER_ENDPOINT": "https://search.example/s",
                "HARMONIZER_AUGMENT_PROVIDER_QUERY_PARAM": "query",
                "HARMONIZER_AUGMENT_PROVIDER_SUGGESTION_SELECTOR": "a.fix",
                "HARMONIZER_AUGMENT_PROVIDER_RESULT_SELECTOR": "a.hit",
                "HARMONIZER_AUGMENT_PROVIDER_RATE_LIMIT_PER_S": "4",
                "HARMONIZER_AUGMENT_PROVIDER_TIMEOUT_S": "2.5",
                "HARMONIZER_AUGMENT_PROVIDER_RETRIES": "5",
            }
        )
        provider = make_provider(config)
        assert isinstance(provider, HtmlSearchProvider)
        assert provider.endpoint == "https://search.example/s"
        selectors = (provider.suggestion_selector, provider.result_selector)
        assert provider.query_param == "query" and selectors == ("a.fix", "a.hit")
        assert (provider._min_interval, provider.timeout_s, provider.retries) == (0.25, 2.5, 5)


class _CannedProvider(SearchProvider):
    """Offline stand-in returning one scripted results page, read with the
    configured selectors."""

    provider_id = "canned"
    base_url = "https://search.example/s"
    suggestion_selector = PROVIDER["suggestion_selector"]
    result_selector = PROVIDER["result_selector"]

    def __init__(self, fail=False):
        self.fail = fail
        self.queries = []

    def search_page(self, query: str) -> str:
        self.queries.append(query)
        if self.fail:
            raise ProviderError("provider down")
        return '<a class="result-link" href="https://www.acme.example/">Acme</a>'

    def fetch_url(self, url: str) -> str:
        return "<p>industrial fasteners</p>"


class TestAugmentStage:
    """``_augment_stage`` reads the cache; ``augment.fetch_names``, which
    only ``harmonizer augment`` calls, fills it."""

    def names(self, n=3):
        return [f"NAME {i}" for i in range(n)]

    def test_provider_error_leaves_name_unaugmented(self, caplog, fresh_cache):
        cache = fresh_cache
        with caplog.at_level("WARNING", logger="harmonizer.augment"):
            results = fetch_names(self.names(), _CannedProvider(fail=True), cache, threads=1, refresh=False)
        assert results == dict.fromkeys(self.names())
        assert not any(name in cache for name in self.names())
        assert "augmentation failed" in caplog.text

    def test_threaded_fetch_keys_results_by_record(self, fresh_cache):
        names = self.names(8)
        cache = fresh_cache
        results = fetch_names(names, _CannedProvider(), cache, threads=4, refresh=False)
        assert list(results) == names
        assert all(r.first_url == "https://www.acme.example/" for r in results.values())
        records = [AssigneeRecord(record_id=f"r{i}", raw_name=name, patent_count=0, locations=frozenset()) for i, name in enumerate(names)]
        assert list(_augment_stage(records, cache).values()) == list(results.values())

    def test_refresh_refetches_and_survives_one_failure(self, fresh_cache):
        names = self.names()
        cache = fresh_cache
        for name in names:
            cache.put(AugmentationResult(query_name=name, provider_id="stale"))

        class OneFails(_CannedProvider):
            def search_page(self, query):
                if query == "NAME 1":
                    raise ProviderError("provider down")
                return super().search_page(query)

        provider = OneFails()
        results = fetch_names(names, provider, cache, threads=2, refresh=True)
        assert sorted(provider.queries) == ["NAME 0", "NAME 2"]
        assert results["NAME 1"] is None
        assert cache.get("NAME 1").provider_id == "stale"
        for name in ("NAME 0", "NAME 2"):
            assert results[name].provider_id == "canned"
            assert cache.get(name) == results[name]

    def test_no_provider_and_empty_cache_yields_none(self, fresh_cache):
        records = [AssigneeRecord(record_id=f"r{i}", raw_name=name, patent_count=0, locations=frozenset()) for i, name in enumerate(self.names())]
        results = _augment_stage(records, fresh_cache)
        assert list(results) == ["r0", "r1", "r2"]
        assert all(v is None for v in results.values())

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("refresh", [False, True])
    def test_each_distinct_name_searched_once(self, threads, refresh, fresh_cache):
        names = ["ACME CORP", "ACME CORP", "OTHER CO", "ACME CORP", "ACME CORP", "ACME CORP"]
        cache = fresh_cache
        if refresh:
            for name in set(names):
                cache.put(AugmentationResult(query_name=name, provider_id="stale"))
        provider = _CannedProvider()
        results = fetch_names(names, provider, cache, threads=threads, refresh=refresh)
        assert sorted(provider.queries) == ["ACME CORP", "OTHER CO"]
        assert list(results) == ["ACME CORP", "OTHER CO"]
        assert {r.provider_id for r in results.values()} == {"canned"}

    def test_fetch_creates_the_cache_file_and_directory(self, tmp_path):
        cache = AugmentationCache(tmp_path / "absent" / "dir" / "cache.jsonl")
        fetch_names(self.names(), _CannedProvider(), cache, threads=2, refresh=False)
        lines = cache.path.read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["query_name"] for line in lines) == self.names()


class TestPrepareCorpus:
    def test_counts_and_artifacts(self, corpus60_paths, corpus60_config):
        records = load_assignee_table(corpus60_paths["input"])
        cache = AugmentationCache(corpus60_paths["cache"])
        manifest = RunManifest("", 0, {})
        corpus = prepare_corpus(corpus60_config, records[::-1], cache, manifest=manifest)
        counts = manifest.stage_counts
        assert counts["records"] == 60
        assert counts["augmented"] == 60
        assert counts["corrected"] == 0
        assert counts["type1"] == 60
        assert counts["type2"] == 0
        assert counts["degenerate"] == 0
        assert counts["candidate_pairs"] == len(corpus.candidates) > 0
        assert manifest.blocking["candidate_pairs"] == len(corpus.candidates)
        # One entry per record in every column, all in ascending id order,
        # whatever order the table gave the records in.
        ids = [r.record_id for r in corpus.records]
        assert ids == sorted(r.record_id for r in records) and corpus.ids == tuple(ids)
        assert corpus.names == [clean_name(r.raw_name, None, DESIGNATORS) for r in corpus.records]
        columns = (corpus.records, corpus.names, corpus.url_tokens)
        assert [len(column) for column in columns] == [60] * 3
        assert all(isinstance(column, list) for column in columns)
        assert corpus.type1.dtype == bool and corpus.type1.tolist() == [True] * 60
        assert corpus.domain.dtype == np.int64 and corpus.domain.shape == (60,)
        # One vector row per distinct token list, in first-seen order.
        distinct = list(dict.fromkeys(n.tokens for n in corpus.names))
        assert len(corpus.vectors) == 60 and len(corpus.vectors.norms) == len(distinct) and corpus.vectors.dim == 256
        assert corpus.vectors.rows.tolist() == [distinct.index(n.tokens) for n in corpus.names]
        assert counts["vector_rows"] == len(distinct) < 60

    def test_brute_force_candidates_superset(self, corpus60_paths, corpus60_config):
        records = load_assignee_table(corpus60_paths["input"])
        cache = AugmentationCache(corpus60_paths["cache"])
        blocked = prepare_corpus(corpus60_config, records, cache)
        brute = brute_force_candidates(blocked.type1)
        assert set(map(tuple, blocked.candidates.tolist())) <= set(map(tuple, brute.tolist()))


def mixed_corpus(cache_path):
    """Records and a cache at ``cache_path`` that repeat tokens, URLs and
    page texts, with a malformed URL in two records, a blocklisted domain
    (at ``blocklist_k`` 1), a spelling correction, non-ASCII names and a
    name with no letter or digit."""
    acme, directory, bad = "https://www.acme.com/", "https://www.directory.example/co", "https://.."
    rows = [
        ("r01", "ACME ROBOTICS INC", None, acme, "Acme builds industrial robots"),
        ("r02", "ACME ROBOTICS CORP", None, acme, "Acme builds industrial robots"),
        ("r03", "ACME ROBOTIX", "ACME ROBOTICS", "https://acme.com/about", "Acme builds industrial robots"),
        ("r04", "Société Générale SA", None, directory, "Company directory listing"),
        ("r05", "SOCIETE GENERALE", None, directory, "Company directory listing"),
        ("r06", "ＦＵＪＩＴＳＵ LIMITED", None, "https://www.fujitsu.com/", "Fujitsu builds computers"),
        ("r07", "FUJITSU LTD", None, bad, "Fujitsu builds computers"),
        ("r08", "Müller GmbH", None, bad, None),
        ("r09", "MULLER AG", None, directory, "Müller Präzisionsteile"),
        ("r10", "GLOBAL ROBOTICS", None, directory, None),
        ("r11", "BOSCH", None, None, None),
        ("r12", "ROBERT BOSCH GMBH", None, None, None),
        ("r13", "---", None, None, None),
    ]
    records = [AssigneeRecord(rid, raw, 1, frozenset()) for rid, raw, *_ in rows]
    cache = AugmentationCache(cache_path)
    for rid, raw, correction, url, text in rows:
        if rid not in ("r12", "r13"):
            cache.put(AugmentationResult(raw, correction, url, text))
    config = PipelineConfig.load(None, environ={}, overrides={"augment": {"blocklist_k": 1}, "parse": {"common_words_n": 2}})
    return config, records[::-1], cache


def assert_same_corpus(got, want):
    assert got.records == want.records
    assert got.names == want.names
    assert got.type1.dtype == want.type1.dtype == bool and np.array_equal(got.type1, want.type1)
    assert got.domain.dtype == want.domain.dtype == np.int64 and np.array_equal(got.domain, want.domain)
    assert got.url_tokens == want.url_tokens
    assert np.array_equal(got.candidates, want.candidates)
    assert len(got.vectors) == len(want.vectors)
    norms = got.vectors.norms[got.vectors.rows].tolist()
    for a, b, norm in zip(got.vectors.values(), want.vectors, norms):
        assert a.vector.shape == b.vector.shape and a.vector.tobytes() == b.vector.tobytes()
        assert a.degenerate == b.degenerate
        assert np.float64(norm).tobytes() == np.float64(ordered_norm(b.vector)).tobytes()


class TestPrepareOnceOracle:
    """``prepare_corpus`` hashes each distinct gram and computes each URL
    domain and page token set once; the per-record oracle computes them for
    every record, one dense vector per name, and both must give the same
    corpus, bit for bit."""

    def test_corpus300(self, corpus300_paths, corpus300_config):
        records = load_assignee_table(corpus300_paths["input"])
        cache = AugmentationCache(corpus300_paths["cache"])
        got = prepare_corpus(corpus300_config, records, cache)
        assert_same_corpus(got, reference_prepare(corpus300_config, records, cache))

    def test_mixed_corpus(self, tmp_path):
        config, records, cache = mixed_corpus(tmp_path / "cache.jsonl")
        manifest = RunManifest("", 0, {})
        got = prepare_corpus(config, records, cache, manifest=manifest)
        assert_same_corpus(got, reference_prepare(config, records, cache))
        # The corpus exercises what it is built for.
        assert manifest.stage_counts["corrected"] == 1 and manifest.stage_counts["augmented"] == 11
        # acme.com is 0 and fujitsu.com 1; the blocklisted directory, the
        # malformed URLs and the records without a URL hold -1.
        assert got.domain.tolist() == [0, 0, 0, -1, -1, 1, -1, -1, -1, -1, -1, -1, -1]
        assert got.names[3].cleaned == "societe generale" and got.names[5].cleaned == "fujitsu"
        assert got.names[12].tokens == () and got.vectors.degenerate[12] and manifest.stage_counts["degenerate"] == 1

    def test_each_distinct_value_computed_once(self, monkeypatch, tmp_path):
        config, records, cache = mixed_corpus(tmp_path / "cache.jsonl")
        calls: dict[str, Counter] = {"gram": Counter(), "url": Counter(), "text": Counter()}

        def spy(owner, attr, key, arg, each=False):
            fn = getattr(owner, attr)

            def counted(*args):
                calls[key].update(args[arg] if each else [args[arg]])
                return fn(*args)

            monkeypatch.setattr(owner, attr, counted)

        spy(embed.HashingBackend, "hash_grams", "gram", 1, each=True)
        spy(augment, "extract_domain", "url", 0)
        spy(augment, "preprocess_url_text", "text", 0)
        corpus = prepare_corpus(config, records, cache)
        results = [cache.get(r.raw_name) for r in records]
        grams = [g for t in {t for name in corpus.names for t in name.tokens} for g in embed.HashingBackend().grams(t)]
        assert set(calls["gram"]) == set(grams)
        assert set(calls["url"]) == {r.first_url for r in results if r is not None and r.first_url}
        assert set(calls["text"]) == {r.first_text if r is not None else None for r in results}
        assert len(calls["gram"]) < len(grams)
        for counter in calls.values():
            assert set(counter.values()) == {1}


IMPORT_GUARD = """
import json, sys
import harmonizer.pipeline as pipeline
from harmonizer.config import PipelineConfig

paths = json.loads(sys.argv[1])
config = PipelineConfig.load(paths["config"], environ={})
before = set(sys.modules)
pipeline.run_pipeline(config, paths["input"], paths["cache"], "out", gold_path=paths["gold"])
pipeline.tune_pipeline(config, paths["input"], paths["cache"], paths["gold"], n_trials=2)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_runs_import_nothing_beyond_the_package_data(corpus60_paths, tmp_path):
    # A module first imported mid-run is paid for in every fresh process: the
    # first np.unique call, for one, imports numpy.ma (about 26 ms).
    env = dict(os.environ, PYTHONPATH=str(Path(embed.__file__).resolve().parent.parent))
    paths = json.dumps({key: str(path) for key, path in corpus60_paths.items()})
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, paths], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == ["harmonizer.data"]


@pytest.fixture(scope="module")
def tuning_corpus(corpus60_paths, corpus60_config):
    records = load_assignee_table(corpus60_paths["input"])
    cache = AugmentationCache(corpus60_paths["cache"])
    corpus = prepare_corpus(corpus60_config, records, cache, bound=corpus60_config.tuning_score_bound())
    return corpus, GoldPairs(load_gold_standard(corpus60_paths["gold"]), corpus.ids)


@pytest.fixture(scope="module")
def tuning_setup(tuning_corpus, corpus60_config):
    corpus, gold = tuning_corpus
    return corpus60_config, build_tuning_objective(corpus60_config, corpus, gold)


class TestTuningObjective:
    def test_incumbent_point_reproduces_pipeline_f1(self, tuning_setup, corpus60_run):
        config, objective = tuning_setup
        incumbent = config.incumbent_point()
        assert objective(incumbent) == pytest.approx(corpus60_run["eval"]["f1"])

    def test_empty_point_falls_back_to_config(self, tuning_setup):
        config, objective = tuning_setup
        incumbent = config.incumbent_point()
        assert objective({}) == pytest.approx(objective(incumbent))

    def test_hostile_point_scores_worse(self, tuning_setup):
        config, objective = tuning_setup
        incumbent = config.incumbent_point()
        hostile = dict.fromkeys(incumbent, 0.1)
        hostile["threshold"] = 5.0
        assert objective(hostile) < objective(incumbent)

    def test_edge_only_rescoring_matches_full_path(self, tuning_setup, tuning_corpus):
        # A trial rescores the table it filled once; filling a fresh table
        # and scoring it must give the same F1 at any point of the search box.
        config, objective = tuning_setup
        corpus, gold = tuning_corpus
        rng = random.Random(20)
        for _ in range(20):
            point = {name: rng.uniform(lo, hi) for name, lo, hi in SEARCH_SPACE}
            params = config.params_at(point)
            table = score_pairs(corpus)
            graph = build_graph(table, table.scores(params), params)
            partition = refine_communities(graph, params)
            assert objective(point) == build_report(gold, partition.community)["f1"], point

    def test_tune_pipeline_runs_incumbent_first(self, corpus60_paths, corpus60_config, tmp_path):
        history = tune_pipeline(
            corpus60_config,
            input_path=corpus60_paths["input"],
            cache_path=corpus60_paths["cache"],
            gold_path=corpus60_paths["gold"],
            n_trials=3,
            store_path=tmp_path / "trials.jsonl",
        )
        assert len(history.trials) == 3
        incumbent = corpus60_config.incumbent_point()
        assert history.trials[0].params == pytest.approx(incumbent)
        assert history.best.objective >= history.trials[0].objective
        assert (tmp_path / "trials.jsonl").read_text().count("\n") == 3

    @pytest.mark.parametrize(
        "overrides, n_trials, message",
        [
            ({}, 0, "tune.trials must be >= 1, got 0"),
            ({"tune": {"trials": 0}}, None, "tune.trials must be >= 1, got 0"),
            ({"tune": {"n_startup": -1}}, 3, "tune.n_startup must be >= 0"),
        ],
    )
    def test_settings_checked_before_the_input_is_read(self, tmp_path, overrides, n_trials, message):
        # Every path is missing, which would raise InputError on reading. A
        # config setting fails as the config loads; the n_trials argument,
        # checked against tune.trials's range, fails as tune_pipeline starts.
        missing = tmp_path / "missing.tsv"
        with pytest.raises(ConfigError, match=message):
            config = PipelineConfig.load(None, environ={}, overrides=overrides)
            tune_pipeline(config, missing, missing, missing, n_trials=n_trials)
        assert not missing.exists()
