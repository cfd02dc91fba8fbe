"""End-to-end batch pipeline and its persisted artifacts.

A run reads the assignee table and the augmentation cache, then parses,
embeds, matches, and filters, writing one artifact per stage: cleaned.tsv,
pairs.tsv, mapping.tsv, summary.json, eval.json (when gold labels are given),
and manifest.json. They reach the output directory together, once all are
written. Given equal inputs, config, and seed, reruns are byte-identical on
the data artifacts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
import platform
import re
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy

from . import __version__
from .augment import (
    AugmentationCache,
    AugmentationResult,
    build_domain_info,
    build_frequent_domain_blocklist,
    registrable_domains,
)
from .config import SEARCH_SPACE, PipelineConfig, checked
from .embed import HashingBackend, compute_idf, embed_corpus
from .errors import InputError, StageError
from .evaluation import GoldPairs, build_report, compute_metrics, reduction_rate
from .graph import Partition, assign_canonical_names, build_graph, refine_communities
from .ingest import AssigneeRecord, load_assignee_table, load_gold_standard, read_tsv, write_tsv
from .match import Corpus, Params, generate_candidate_pairs, score_pairs, write_scored_pairs
from .parse import (
    CleanName,
    LegalDesignatorDictionary,
    NameClass,
    build_common_word_list,
    classify_name_type,
    clean_name,
    document_frequencies,
)
from .tune import TrialHistory, optimize

log = logging.getLogger(__name__)

MAPPING_HEADER = ["record_id", "raw_name", "community_id", "canonical_name"]
CLEANED_HEADER = ["record_id", "cleaned_name", "name_class", "degenerate"]
# ru_maxrss counts bytes on macOS and KiB elsewhere.
_MAXRSS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10
# Every file a run can leave in its output directory; the manifest comes last.
ARTIFACTS = ("cleaned.tsv", "pairs.tsv", "mapping.tsv", "summary.json", "eval.json", "manifest.json")


def _dependency_versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    config: dict
    package_version: str = __version__
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    stage_counts: dict[str, int] = field(default_factory=dict)
    layer_seconds: dict[str, float] = field(default_factory=dict)
    layer_rss_mb: dict[str, float] = field(default_factory=dict)
    layer_full_collections: dict[str, int] = field(default_factory=dict)
    blocking: dict = field(default_factory=dict)
    filter: dict = field(default_factory=dict)
    versions: dict[str, str] = field(default_factory=_dependency_versions)
    # Full collections started since a layer was last charged; not a field,
    # so the manifest does not write it.
    _uncharged_collections = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def _count_collection(self, phase: str, info: dict) -> None:
        """A ``gc.callbacks`` hook: a generation-2 collection that starts
        counts towards the next layer charged."""
        if phase == "start" and info["generation"] == 2:
            self._uncharged_collections += 1


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _charge(manifest: Optional[RunManifest], layer: str, since: float) -> float:
    """Add the time since ``since`` to ``layer_seconds[layer]`` and the full
    collections counted since the last charge to
    ``layer_full_collections[layer]``, and set ``layer_rss_mb[layer]``, moved
    last so its values rise in dict order, to the peak RSS so far; return
    the time now."""
    now = time.perf_counter()
    if manifest is not None:
        manifest.layer_seconds[layer] = round(manifest.layer_seconds.get(layer, 0.0) + now - since, 6)
        collections = manifest.layer_full_collections.get(layer, 0) + manifest._uncharged_collections
        manifest.layer_full_collections[layer] = collections
        manifest._uncharged_collections = 0
        manifest.layer_rss_mb.pop(layer, None)
        manifest.layer_rss_mb[layer] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _MAXRSS_PER_MB, 1)
    return now


def write_mapping(partition: Partition, records: Sequence[AssigneeRecord], path: Path) -> None:
    """One row per record, in the order of ``records``, whose positions
    ``partition`` covers."""
    canonical = [partition.canonical.get(cid, "") for cid in partition.community]
    rows = zip(records, partition.community, canonical)
    write_tsv(path, MAPPING_HEADER, ((rec.record_id, rec.raw_name, str(cid), name) for rec, cid, name in rows))


def read_mapping(path: str | Path) -> list[dict]:
    rows = []
    for line_no, (record_id, raw_name, cid, canonical) in read_tsv(path, MAPPING_HEADER, "mapping"):
        try:
            community_id = int(cid)
        except ValueError:
            raise InputError(f"{path} line {line_no}: bad community_id {cid!r}")
        rows.append(
            {"record_id": record_id, "raw_name": raw_name, "community_id": community_id, "canonical_name": canonical}
        )
    return rows


def _degenerate(corpus: Corpus) -> list[bool]:
    """Per name: made of nothing but designators, or embedded to the zero
    vector and so scoring cos 0 against every other name."""
    return [name.degenerate or zero for name, zero in zip(corpus.names, corpus.vectors.degenerate.tolist())]


def _write_cleaned(corpus: Corpus, path: Path) -> None:
    cleaned = [name.cleaned for name in corpus.names]
    classes = ["type1" if type1 else "type2" for type1 in corpus.type1.tolist()]
    write_tsv(path, CLEANED_HEADER, zip(corpus.ids, cleaned, classes, [str(int(d)) for d in _degenerate(corpus)]))


def _augment_stage(
    records: Sequence[AssigneeRecord], cache: AugmentationCache
) -> dict[str, Optional[AugmentationResult]]:
    """Each record's cached augmentation, keyed by record id in record order;
    None for a name the cache lacks."""
    return {record.record_id: cache.get(record.raw_name) for record in records}


def prepare_corpus(
    config: PipelineConfig,
    records: Sequence[AssigneeRecord],
    cache: AugmentationCache,
    bound: Optional[Params] = None,
    manifest: Optional[RunManifest] = None,
) -> Corpus:
    """Augment (from cache), parse, classify, embed, and block the corpus,
    with the records sorted by record id.

    Blocking keeps every pair able to reach ``bound``, which defaults to the
    configured parameters (what ``run`` scores with).
    ``manifest``, when given, receives the stage counts, the blocking key
    kinds used with the candidate count and the largest block, and the time
    spent in the augment, parse, domain, embed and block layers with the
    peak RSS after each.
    """
    t = time.perf_counter()
    records = sorted(records, key=lambda r: r.record_id)
    results = list(_augment_stage(records, cache).values())
    t = _charge(manifest, "augment", t)

    designators = LegalDesignatorDictionary.from_file(config["parse"]["designators"])
    names: list[CleanName] = []
    for record, result in zip(records, results):
        correction = result.corrected_name if result is not None else None
        names.append(clean_name(record.raw_name, correction, designators))
    counts = document_frequencies(names)
    common = build_common_word_list(counts, config["parse"]["common_words_n"])
    type1 = numpy.array([classify_name_type(n.tokens, common) is NameClass.TYPE1 for n in names], dtype=bool)
    t = _charge(manifest, "parse", t)

    domains = registrable_domains(results)
    blocklist = build_frequent_domain_blocklist(domains, config["augment"]["blocklist_k"])
    domain, url_tokens = build_domain_info(results, domains, blocklist, common)
    t = _charge(manifest, "domain", t)

    vectors = embed_corpus(names, HashingBackend(), compute_idf(counts, len(names)))
    t = _charge(manifest, "embed", t)

    blocking = manifest.blocking if manifest is not None else {}
    bound = bound if bound is not None else config.params_at({})
    candidates = generate_candidate_pairs(names, type1, domain, url_tokens, bound, stats=blocking)
    blocking["candidate_pairs"] = len(candidates)
    corpus = Corpus(records, names, type1, domain, url_tokens, vectors, candidates)
    _charge(manifest, "block", t)

    if manifest is not None:
        manifest.stage_counts.update(
            records=len(records),
            augmented=sum(1 for r in results if r is not None),
            corrected=sum(1 for r in results if r is not None and r.corrected_name),
            type1=int(type1.sum()),
            type2=int((~type1).sum()),
            degenerate=sum(_degenerate(corpus)),
            vector_rows=len(vectors.norms),
            candidate_pairs=len(candidates),
        )
    return corpus


def _remove_stale_work_dirs(out_dir: Path) -> None:
    """Remove the ``.<out>.<pid>.<suffix>`` siblings of ``out_dir`` whose
    pid no longer exists; those of a live process stay."""
    pattern = re.escape(f".{out_dir.name}.") + r"(\d{1,7})\.[a-z0-9_]{8}"
    for path in out_dir.parent.iterdir():
        found = re.fullmatch(pattern, path.name)
        try:
            if found and path.is_dir():
                os.kill(int(found.group(1)), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass  # alive, and another user's


def run_pipeline(
    config: PipelineConfig,
    input_path: str | Path,
    cache_path: str | Path,
    out_dir: str | Path,
    gold_path: str | Path | None,
    offline: bool = True,
) -> RunManifest:
    """Execute all stages and persist per-stage artifacts plus the manifest.

    Artifacts are written into a temporary sibling of ``out_dir`` and moved
    into it only once the manifest is written; ``out_dir`` is created only
    then, and an artifact this run did not write (eval.json without gold) is
    removed from it. On error ``out_dir`` is left as it was, or absent if it
    was, and a StageError names the stage. The sibling's name carries the
    pid of its run, so one left by a killed run is removed by the next. An
    ``out_dir`` that cannot be written raises InputError before any read.

    The gold labels are checked where they are read, before any stage runs.
    The run reads the augmentation cache and fetches nothing: a name the
    cache lacks stays un-augmented. ``offline`` has no effect; it is kept
    because ``perfbench/child.py`` still passes it.
    """
    out_dir = Path(out_dir)
    try:
        if out_dir.exists() and not out_dir.is_dir():
            raise NotADirectoryError("not a directory")
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        _remove_stale_work_dirs(out_dir)
        work = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.{os.getpid()}.", dir=out_dir.parent))
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc.strerror or exc}") from None
    manifest = RunManifest(
        config_hash=config.config_hash(), seed=config["run"]["seed"], config=json.loads(config.canonical_json())
    )
    stage = "ingest"
    count_collection = manifest._count_collection
    gc.callbacks.append(count_collection)
    try:
        t = time.perf_counter()
        input_path = Path(input_path)
        cache_path = Path(cache_path)
        records = load_assignee_table(input_path)
        if not records:
            raise InputError(f"{input_path}: no records")
        manifest.inputs[str(input_path)] = _sha256(input_path)
        gold = None
        if gold_path is not None:
            gold_path = Path(gold_path)
            gold = GoldPairs(load_gold_standard(gold_path), sorted(record.record_id for record in records))
            manifest.inputs[str(gold_path)] = _sha256(gold_path)
        t = _charge(manifest, "ingest", t)

        stage = "augment"
        cache = AugmentationCache(cache_path)
        if cache_path.exists():
            manifest.inputs[str(cache_path)] = _sha256(cache_path)
        _charge(manifest, "augment", t)
        corpus = prepare_corpus(config, records, cache, manifest=manifest)

        stage = "parse"
        t = time.perf_counter()
        _write_cleaned(corpus, work / "cleaned.tsv")
        t = _charge(manifest, "write", t)

        stage = "match"
        params = config.params_at({})
        table = score_pairs(corpus)
        scores = table.scores(params)
        t = _charge(manifest, "score", t)
        write_scored_pairs(table, scores, work / "pairs.tsv", params.threshold)
        t = _charge(manifest, "write", t)

        stage = "filter"
        graph = build_graph(table, scores, params)
        partition = refine_communities(graph, params, manifest.filter)
        t = _charge(manifest, "graph", t)
        partition = assign_canonical_names(partition, corpus)
        t = _charge(manifest, "naming", t)
        write_mapping(partition, corpus.records, work / "mapping.tsv")
        t = _charge(manifest, "write", t)
        manifest.stage_counts.update(edges=graph.number_of_edges(), communities=partition.n_communities)

        stage = "summary"
        patents = [record.patent_count for record in corpus.records]
        summary = summarize_partition(partition.community, partition.canonical, patents)
        summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        (work / "summary.json").write_text(summary_text, encoding="utf-8")
        t = _charge(manifest, "summary", t)

        if gold is not None:
            stage = "evaluate"
            report = build_report(gold, partition.community)
            (work / "eval.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            t = _charge(manifest, "evaluate", t)

        for name in ARTIFACTS[:-1]:
            if (work / name).exists():
                manifest.outputs[str(out_dir / name)] = _sha256(work / name)
        _charge(manifest, "write", t)
        (work / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
        out_dir.mkdir(exist_ok=True)
        for name in ARTIFACTS:
            if (work / name).exists():
                os.replace(work / name, out_dir / name)
            else:
                (out_dir / name).unlink(missing_ok=True)
        return manifest
    except InputError:
        raise
    except Exception as exc:
        raise StageError(stage, str(exc)) from exc
    finally:
        gc.callbacks.remove(count_collection)
        shutil.rmtree(work, ignore_errors=True)


def summarize_partition(
    community: Sequence[int],
    canonical: Mapping[int, str],
    patents: Sequence[int],
    top_k: int = 10,
) -> dict:
    """Reduction rate, community count, and the largest communities of
    ``community`` (one id per record position; ties go to the smaller id),
    whose portfolios sum ``patents`` (one count per position) over members."""
    sizes, portfolios = Counter(community), Counter()
    for cid, count in zip(community, patents, strict=True):
        portfolios[cid] += count
    n_before = len(community)
    n_after = len(sizes)
    largest = sorted(sizes.items(), key=lambda item: (-item[1], item[0]))[:top_k]
    return {
        "n_records": n_before,
        "n_communities": n_after,
        "reduction_rate": reduction_rate(n_before, n_after) if n_before else 0.0,
        "largest_communities": [
            {
                "community_id": cid,
                "size": size,
                "canonical_name": canonical.get(cid, ""),
                "portfolio": portfolios[cid],
            }
            for cid, size in largest
        ],
    }


def summarize_mapping(mapping_rows: Sequence[dict], records: Iterable[AssigneeRecord], top_k: int) -> dict:
    """Summary for an already-written mapping file; members without a record
    count no patents."""
    patents = {r.record_id: r.patent_count for r in records}
    community = [row["community_id"] for row in mapping_rows]
    canonical = {row["community_id"]: row["canonical_name"] for row in mapping_rows}
    counts = [patents.get(row["record_id"], 0) for row in mapping_rows]
    return summarize_partition(community, canonical, counts, top_k=top_k)


def build_tuning_objective(
    config: PipelineConfig,
    corpus: Corpus,
    gold: GoldPairs,
) -> Callable[[dict[str, float]], float]:
    """Pairwise-F1 objective over the prepared corpus, against ``gold`` built
    over ``corpus.ids``.

    The pair table is made once for the blocked candidate set; each trial
    rescores the table with one vector expression, re-runs the filter stage
    on the rows that clear its threshold and counts its own (cluster, entity)
    cells.
    """
    table = score_pairs(corpus)

    def objective(point: dict[str, float]) -> float:
        params = config.params_at(point)
        graph = build_graph(table, table.scores(params), params)
        partition = refine_communities(graph, params)
        return compute_metrics(gold.confusion(partition.community)).f1

    return objective


def tune_pipeline(
    config: PipelineConfig,
    input_path: str | Path,
    cache_path: str | Path,
    gold_path: str | Path,
    n_trials: Optional[int] = None,
    store_path: str | Path | None = None,
) -> TrialHistory:
    """Prepare the corpus once, then TPE-search the filter/score parameters.

    Trial 0 is the configuration clipped into the search box, which is the
    configured baseline when the config lies inside the box. ``n_trials``
    replaces ``tune.trials`` and is checked against its range before the input
    is read. A gold standard that is empty or shares no record with the input
    fails before the corpus is prepared.
    """
    trials = config["tune"]["trials"] if n_trials is None else checked("tune.trials", n_trials)
    records = load_assignee_table(input_path)
    gold = GoldPairs(load_gold_standard(gold_path), sorted(record.record_id for record in records))
    cache = AugmentationCache(cache_path)
    corpus = prepare_corpus(config, records, cache, bound=config.tuning_score_bound())
    objective = build_tuning_objective(config, corpus, gold)
    return optimize(
        objective,
        SEARCH_SPACE,
        trials,
        n_startup=config["tune"]["n_startup"],
        seed=config["run"]["seed"],
        initial=[config.incumbent_point()],
        store_path=store_path,
    )
