#!/usr/bin/env python3
"""Build the committed synthetic corpora under tests/data/.

Two corpora: a 300-name one with planted entities, misspellings keyed to
cache corrections, shared domains, geographic noise, and adversarial
near-collisions; and a clean 60-name one (12 entities x 5 variants) that the
default parameters must resolve perfectly. The script runs the real pipeline
on both and refuses to write fixtures that miss their targets, so the files
in the repo are known-good snapshots.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from harmonizer.augment import AugmentationCache, AugmentationResult
from harmonizer.config import PipelineConfig
from harmonizer.ingest import AssigneeRecord, write_assignee_table, write_gold_standard
from harmonizer.pipeline import prepare_corpus, run_pipeline

DATA = REPO / "tests" / "data"
FETCHED_AT = 1700000000.0
PROVIDER = "fixture"

GEO = [
    ("DENMARK", "copenhagen||dk"),
    ("CANADA", "toronto|ontario|ca"),
    ("FRANCE", "paris||fr"),
    ("JAPAN", "tokyo||jp"),
    ("DEUTSCHLAND", "munich|bavaria|de"),
    ("AUSTRALIA", "sydney|nsw|au"),
]

# Generic words pushed into enough names to become the corpus common-word
# list; entity stems stay well below their presence counts.
COMMON = [
    "technologies", "systems", "international", "group", "industries",
    "solutions", "global", "advanced", "engineering", "research",
    "materials", "pharma",
]

SECTORS = {
    "telecom": "wireless network infrastructure and telecommunications equipment",
    "biotech": "clinical biotherapeutics and genomic medicine discovery",
    "semis": "semiconductor lithography wafers and photonic chips",
    "energy": "renewable turbine generators and grid storage batteries",
    "autos": "automotive drivetrain actuators and vehicle safety sensors",
    "optics": "precision optical lenses and imaging instruments",
    "agri": "crop protection compounds and agricultural machinery",
    "aero": "avionics flight control modules and propulsion hardware",
    "chem": "specialty polymer coatings and catalyst chemistry",
    "medtech": "surgical implants and diagnostic imaging devices",
}

STEMS = [
    ("veltrona", "telecom"), ("quorvex", "biotech"), ("zephyrion", "semis"),
    ("maratek", "energy"), ("ostrella", "autos"), ("fenwick", "optics"),
    ("gandara", "agri"), ("helvetix", "aero"), ("ironwood", "chem"),
    ("jasperon", "medtech"), ("kelvaris", "telecom"), ("lumectra", "biotech"),
    ("mordale", "semis"), ("nervalin", "energy"), ("oberlund", "autos"),
    ("pellagro", "agri"), ("quintaro", "aero"), ("ravenor", "chem"),
    ("sylvanix", "medtech"), ("tellurian", "optics"), ("umbretta", "telecom"),
    ("vardessa", "biotech"), ("wexford", "semis"), ("xillian", "energy"),
    ("yolanda", "autos"), ("zorbitek", "optics"), ("arvento", "agri"),
    ("brunmark", "aero"), ("cavelli", "chem"), ("drexlon", "medtech"),
    ("ebbertal", "telecom"), ("fornadel", "biotech"), ("gristaro", "semis"),
    ("hollvik", "energy"), ("ignatra", "autos"), ("jorvendal", "optics"),
    ("kressler", "agri"), ("lindqvist", "aero"), ("morrowind", "chem"),
    ("nubilar", "medtech"), ("oprestal", "telecom"), ("pyrmont", "biotech"),
    ("quellson", "semis"), ("rostovar", "energy"), ("sandrelli", "autos"),
    ("tornquist", "optics"), ("ulverston", "agri"), ("vinterberg", "aero"),
    ("wollaston", "chem"), ("yarrowlea", "medtech"),
]

VARIANT_TEMPLATES = [
    "{S} CORPORATION",
    "{S}, INC.",
    "{S} {C} GMBH",
    "{S} {C1} {C2}, LTD.",
    "{S} {GEO}",
    "{S} HOLDING CO., LTD.",
]


def entity_text(stem: str, sector: str) -> str:
    return (
        f"{stem.title()} develops {SECTORS[sector]}. The {stem.title()} portfolio "
        f"serves customers worldwide with patented designs."
    )


def result(name: str, corrected=None, url=None, text=None) -> AugmentationResult:
    return AugmentationResult(
        query_name=name,
        corrected_name=corrected,
        first_url=url,
        first_text=text,
        fetched_at=FETCHED_AT,
        provider_id=PROVIDER,
    )


def misspell(stem: str) -> str:
    # Swap the 3rd and 4th letters: veltrona -> vetlrona.
    return stem[:2] + stem[3] + stem[2] + stem[4:]


def build_corpus300():
    rng = random.Random(42)
    rows = []  # (raw_name, entity_id, locations, cache_result_or_None, patents)
    common_cycle = list(COMMON)

    def pick_common(i, n):
        return [common_cycle[(i + k) % len(common_cycle)] for k in range(n)]

    # 1) 36 planted multi-variant entities.
    for idx, (stem, sector) in enumerate(STEMS[:36]):
        upper = stem.upper()
        domain_url = f"https://www.{stem}.com/"
        text = entity_text(stem, sector)
        n_variants = 3 + idx % 4  # 3..6
        geo_word, geo_loc = GEO[idx % len(GEO)]
        c1, c2, c3 = pick_common(idx, 3)
        templates = [
            f"{upper} CORPORATION",
            f"{upper}, INC.",
            f"{upper} {c1.upper()} GMBH",
            f"{upper} {c2.upper()} {c3.upper()}, LTD.",
            f"{upper} {geo_word}",
            f"{upper} HOLDING CO., LTD.",
        ]
        home_loc = f"{stem[:4]}ville||us"
        for v in range(n_variants):
            name = templates[v]
            locs = home_loc if v in (0, 1, 5) else (geo_loc if v == 4 else "")
            rows.append((name, f"E{idx:03d}", locs, result(name, url=domain_url, text=text), 10 + v))
        if idx % 3 == 0:
            # One misspelled variant whose cache entry carries the correction.
            bad = f"{misspell(stem).upper()} CORPORATION"
            corrected = f"{upper} CORPORATION"
            rows.append((bad, f"E{idx:03d}", "", result(bad, corrected=corrected, url=domain_url, text=text), 1))

    # 2) Adversarial near-collisions: distinct entities, similar strings.
    adversarial = [
        ("VELTRONAX TYRES PLC", "https://www.veltronax-tyres.example/", "Veltronax supplies rubber tyres and winter treads for heavy vehicles."),
        ("IMTECH, INC.", "https://www.imtech.example/", "Imtech builds marine engineering services."),
        ("AMTECH, INC.", "https://www.amtech.example/", "Amtech sells amusement ride controllers."),
        ("QUORVEX KELVARIS JOINT VENTURE", "https://www.quorvex-kelvaris.example/", "The joint venture combines biotherapeutics with wireless infrastructure."),
    ]
    for name, url, text in adversarial:
        rows.append((name, f"S{name[:6]}", "", result(name, url=url, text=text), 5))

    # 3) Type-2 singletons: every token is a designated common word.
    type2 = [
        "ADVANCED TECHNOLOGIES GROUP",
        "GLOBAL PHARMA SOLUTIONS",
        "INTERNATIONAL ENGINEERING SYSTEMS",
        "ADVANCED MATERIALS RESEARCH",
        "GLOBAL INDUSTRIES GROUP",
        "INTERNATIONAL RESEARCH SOLUTIONS",
    ]
    for i, name in enumerate(type2):
        rows.append((name, f"T2{i:02d}", "", result(name, url="https://www.directory.example/firms", text=None), 2))

    # 4) Plain singletons. Two junk aggregator domains dominate the domain
    # counts (the blocklist must absorb them), some rows share the london
    # location (boost must never create an edge on its own), and every shape
    # carries common words to keep their presence counts high.
    n_singletons = 300 - len(rows)
    consonants = "bcdfghjklmnpqrstvz"
    vowels = "aeiou"
    seen_stems = {s for s, _ in STEMS}
    singles = []
    while len(singles) < n_singletons:
        stem = "".join(
            rng.choice(consonants) + rng.choice(vowels) for _ in range(3)
        ) + rng.choice(consonants)
        if stem in seen_stems:
            continue
        seen_stems.add(stem)
        singles.append(stem)
    for i, stem in enumerate(singles):
        upper = stem.upper()
        c1, c2 = pick_common(i, 2)
        shape = i % 4
        if shape == 0:
            name = f"{upper} {c1.upper()} CORP."
        elif shape == 1:
            name = f"{upper} {c1.upper()} {c2.upper()} LLC"
        elif shape == 2:
            name = f"{upper} {c1.upper()} {c2.upper()}, LTD."
        else:
            name = f"{upper} {c1.upper()} AB"
        locs = "london||uk" if i % 7 == 0 else ""
        if i % 3 == 0:
            res = result(name, url="https://www.directory.example/co", text=None)
        elif i % 3 == 1:
            res = result(name, url="https://listing.example/profiles", text=None)
        else:
            res = None
        rows.append((name, f"SG{i:03d}", locs, res, i % 9))

    assert len(rows) == 300, len(rows)
    return rows


def build_corpus60():
    stems12 = [s for s, _ in STEMS[:12]]
    rows = []
    for idx, stem in enumerate(stems12):
        upper = stem.upper()
        sector = STEMS[idx][1]
        url = f"https://www.{stem}.com/"
        text = entity_text(stem, sector)
        geo_word, geo_loc = GEO[idx % len(GEO)]
        home = f"{stem[:4]}town||us"
        variants = [
            (f"{upper} CORPORATION", home),
            (f"{upper}, INC.", home),
            (f"{upper} {geo_word}", geo_loc),
            (f"{upper} HOLDING CO., LTD.", ""),
            (f"{upper} AKTIENGESELLSCHAFT", ""),
        ]
        for name, locs in variants:
            rows.append((name, f"E{idx:02d}", locs, result(name, url=url, text=text), 10 + idx))
    assert len(rows) == 60
    return rows


def write_fixture(rows, prefix: str, seed: int):
    rng = random.Random(seed)
    order = list(range(len(rows)))
    rng.shuffle(order)
    records, gold, cache_lines = [], {}, []
    for new_idx, old_idx in enumerate(order, start=1):
        name, entity, locs, res, patents = rows[old_idx]
        rid = f"r{new_idx:03d}"
        loc_set = frozenset(x for x in locs.split(";") if x) if locs else frozenset()
        records.append(AssigneeRecord(record_id=rid, raw_name=name, patent_count=patents, locations=loc_set))
        gold[rid] = entity
        if res is not None:
            cache_lines.append(res.to_json())
    records.sort(key=lambda r: r.record_id)
    gold = dict(sorted(gold.items()))
    write_assignee_table(records, DATA / f"{prefix}.tsv")
    write_gold_standard(gold, DATA / f"{prefix}_gold.tsv")
    (DATA / f"{prefix}_cache.jsonl").write_text("\n".join(cache_lines) + "\n", encoding="utf-8")
    return records, gold


def check(prefix: str, config_path: Path, f1_floor: float, reduction_lo: float, reduction_hi: float, expect_f1=None):
    import tempfile

    config = PipelineConfig.load(config_path)
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(
            config,
            input_path=DATA / f"{prefix}.tsv",
            cache_path=DATA / f"{prefix}_cache.jsonl",
            out_dir=tmp,
            gold_path=DATA / f"{prefix}_gold.tsv",
            offline=True,
        )
        report = json.loads((Path(tmp) / "eval.json").read_text())
        summary = json.loads((Path(tmp) / "summary.json").read_text())
    f1 = report["f1"]
    rate = summary["reduction_rate"]
    print(f"{prefix}: f1={f1:.4f} precision={report['precision']:.4f} recall={report['recall']:.4f} "
          f"communities={summary['n_communities']} reduction={rate:.4f}")
    assert f1 >= f1_floor, f"{prefix}: f1 {f1} below {f1_floor}"
    assert reduction_lo <= rate <= reduction_hi, f"{prefix}: reduction {rate} outside [{reduction_lo}, {reduction_hi}]"
    if expect_f1 is not None:
        assert abs(f1 - expect_f1) < 1e-12, f"{prefix}: expected f1 {expect_f1}, got {f1}"
        assert summary["n_communities"] == 12
    return report, summary


def sanity_parse(prefix: str, config_path: Path):
    """The designated common words must actually be the corpus common words."""
    from harmonizer.ingest import load_assignee_table
    from harmonizer.parse import build_common_word_list, document_frequencies

    config = PipelineConfig.load(config_path)
    records = load_assignee_table(DATA / f"{prefix}.tsv")
    cache = AugmentationCache(DATA / f"{prefix}_cache.jsonl")
    artifacts = prepare_corpus(config, records, cache)
    common = build_common_word_list(document_frequencies(artifacts.names), config["parse"]["common_words_n"])
    print(f"{prefix} common words: {sorted(common)}")
    stems = {s for s, _ in STEMS}
    overlap = stems & common
    assert not overlap, f"entity stems leaked into common words: {overlap}"
    n_type2 = int((~artifacts.type1).sum())
    print(f"{prefix}: {n_type2} type-2 names, {len(artifacts.candidates)} candidate pairs")


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    write_fixture(build_corpus300(), "corpus300", seed=7)
    write_fixture(build_corpus60(), "corpus60", seed=11)
    sanity_parse("corpus300", DATA / "corpus300.yaml")
    check("corpus300", DATA / "corpus300.yaml", f1_floor=0.93, reduction_lo=0.35, reduction_hi=0.55)
    check("corpus60", DATA / "corpus60.yaml", f1_floor=1.0, reduction_lo=0.79, reduction_hi=0.81, expect_f1=1.0)
    print("fixtures written to", DATA)


if __name__ == "__main__":
    main()
