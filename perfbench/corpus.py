"""Seeded synthetic corpora: assignee table, gold labels, augmentation cache
and run config, written as plain files.

The flat recipe follows the 300-name test corpus built by
``scripts/generate_fixtures.py``: entities with 3-6 variants and misspellings
whose cache entries carry the correction, near-collisions, type-2 names made
of common words, and singletons on directory domains. It is copied here, not
imported, and the files are written without the package's own writers, so no
change to ``scripts/`` or ``src/`` can change the input bytes of a seed.

The hub recipe has fewer, larger entities (20-40 variants, dense cliques at
threshold 3.5) plus bridged pairs. A bridged pair is two small entities A and
B joined by two hub names, "A B GROUP" and "B A GROUP", laid out so that the
bridge does not depend on cosine noise:

* every variant of A cleans to the same tokens, so A's variants have cosine
  exactly 1 with each other and score 4 without a shared domain;
* A's "core" variants share a domain and a page word with hub "A B GROUP"
  (score 4 + cos), its other variants share neither (score at most 3);
* the two hubs have the same token set (cosine 1) and share domain and page
  words (score 4); each hub shares no page word with the other side.

So each hub touches only part of one entity, both sit on every shortest path
between the two entities, and their bridgeness exceeds 1 inside any
community that holds the pair.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

FETCHED_AT = 1700000000.0
PROVIDER = "bench"

GEO = [
    ("DENMARK", "copenhagen||dk"),
    ("CANADA", "toronto|ontario|ca"),
    ("FRANCE", "paris||fr"),
    ("JAPAN", "tokyo||jp"),
    ("DEUTSCHLAND", "munich|bavaria|de"),
    ("AUSTRALIA", "sydney|nsw|au"),
]

# Generic words pushed into enough names to become the corpus common-word
# list (``parse.common_words_n`` in each config is their count).
FLAT_COMMON = [
    "technologies", "systems", "international", "group", "industries",
    "solutions", "global", "advanced", "engineering", "research",
    "materials", "pharma",
]
# "group" stays rare in the hub corpus: it is the hub names' only token that
# their own page text may contain.
HUB_COMMON = ["technologies", "systems", "international", "industries", "solutions"]

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
SECTOR_NAMES = sorted(SECTORS)

DESIGNATORS = [
    "CORPORATION", "INC.", "GMBH", "LTD.", "AG", "S.A.", "B.V.", "PLC",
    "LLC", "AB", "OY", "KABUSHIKI KAISHA",
]

ONSETS = "b c d f g h k l m n p r s t v z br dr fl gr kr pl st tr".split()
VOWELS = "a e i o u".split()
CODAS = "n r s x k l".split()
CONSONANTS = "bcdfghjklmnpqrstvz"


@dataclass(frozen=True)
class Row:
    name: str
    entity: str
    locations: str = ""
    url: str | None = None
    text: str | None = None
    correction: str | None = None
    patents: int = 1
    # Cleaned tokens the recipe expects, for the common-word self-check.
    tokens: tuple[str, ...] = ()


@dataclass(frozen=True)
class Corpus:
    """Paths of one generated corpus plus what the checks need to know."""

    records: Path
    gold: Path
    cache: Path
    config: Path
    n_records: int
    sha256: dict[str, str]


class _Names:
    """Unique pronounceable stems; nothing collides with a word the recipes
    use elsewhere."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken = set(FLAT_COMMON) | set(HUB_COMMON) | {"group"}

    def _fresh(self, make) -> str:
        while True:
            stem = make()
            if stem not in self.taken and misspell(stem) not in self.taken:
                self.taken.add(stem)
                self.taken.add(misspell(stem))
                return stem

    def entity(self) -> str:
        rng = self.rng
        return self._fresh(
            lambda: "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(3)) + rng.choice(CODAS)
        )

    def root(self) -> str:
        rng = self.rng
        return self._fresh(lambda: rng.choice(CONSONANTS) + rng.choice(VOWELS) + rng.choice(CONSONANTS) + "tech")

    def single(self) -> str:
        rng = self.rng
        return self._fresh(
            lambda: "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(3)) + rng.choice(CONSONANTS)
        )


def misspell(stem: str) -> str:
    # Swap the 3rd and 4th letters: veltrona -> vetlrona.
    return stem[:2] + stem[3] + stem[2] + stem[4:]


def entity_text(stem: str, sector: str) -> str:
    return (
        f"{stem.title()} develops {SECTORS[sector]}. The {stem.title()} portfolio "
        f"serves customers worldwide with patented designs."
    )


def _singletons(names: _Names, n: int, common: list[str], prefix: str) -> list[Row]:
    """Singletons carrying common words. Two aggregator domains dominate the
    domain counts, so a blocklist of 2 absorbs them; some share a location."""
    rows = []
    for i in range(n):
        upper = names.single().upper()
        c1, c2 = common[i % len(common)], common[(i + 1) % len(common)]
        shape = i % 4
        if shape == 0:
            name, tokens = f"{upper} {c1.upper()} CORP.", (c1,)
        elif shape == 1:
            name, tokens = f"{upper} {c1.upper()} {c2.upper()} LLC", (c1, c2)
        elif shape == 2:
            name, tokens = f"{upper} {c1.upper()} {c2.upper()}, LTD.", (c1, c2)
        else:
            name, tokens = f"{upper} {c1.upper()} AB", (c1,)
        url = None
        if i % 3 == 0:
            url = "https://www.directory.example/co"
        elif i % 3 == 1:
            url = "https://listing.example/profiles"
        rows.append(
            Row(name, f"{prefix}{i:04d}", "london||uk" if i % 7 == 0 else "", url=url, patents=i % 9,
                tokens=(upper.lower(),) + tokens)
        )
    return rows


def _type2(rng: random.Random, n: int, common: list[str]) -> list[Row]:
    """Names made only of common words, on the directory domain."""
    seen: set[tuple[str, ...]] = set()
    rows = []
    while len(rows) < n:
        words = tuple(rng.sample(common, 3))
        if frozenset(words) in seen:
            continue
        seen.add(frozenset(words))
        rows.append(
            Row(" ".join(w.upper() for w in words), f"T2{len(rows):03d}",
                url="https://www.directory.example/firms", patents=2, tokens=words)
        )
    return rows


def flat_rows(seed: int, n_entities: int) -> list[Row]:
    """The 300-name test corpus recipe with ``n_entities`` entities (it has
    36); the other parts scale with it. 120 entities give 1,000 records."""
    rng = random.Random(seed)
    names = _Names(rng)
    rows: list[Row] = []
    stems = [names.entity() for _ in range(n_entities)]
    for idx, stem in enumerate(stems):
        sector = SECTOR_NAMES[idx % len(SECTOR_NAMES)]
        upper = stem.upper()
        url = f"https://www.{stem}.com/"
        text = entity_text(stem, sector)
        geo_word, geo_loc = GEO[idx % len(GEO)]
        c1, c2, c3 = (FLAT_COMMON[(idx + k) % len(FLAT_COMMON)] for k in range(3))
        templates = [
            (f"{upper} CORPORATION", ()),
            (f"{upper}, INC.", ()),
            (f"{upper} {c1.upper()} GMBH", (c1,)),
            (f"{upper} {c2.upper()} {c3.upper()}, LTD.", (c2, c3)),
            (f"{upper} {geo_word}", (geo_word.lower(),)),
            (f"{upper} HOLDING CO., LTD.", ("holding",)),
        ]
        home = f"{stem[:4]}ville||us"
        entity = f"E{idx:04d}"
        for v in range(3 + idx % 4):
            name, extra = templates[v]
            locs = home if v in (0, 1, 5) else (geo_loc if v == 4 else "")
            rows.append(Row(name, entity, locs, url=url, text=text, patents=10 + v, tokens=(stem,) + extra))
        if idx % 3 == 0:
            # A misspelled variant whose cache entry carries the correction.
            bad = f"{misspell(stem).upper()} CORPORATION"
            rows.append(Row(bad, entity, url=url, text=text, correction=f"{upper} CORPORATION",
                            tokens=(stem,)))

    # Near-collisions: distinct entities with similar strings.
    for i in range(n_entities // 9):
        kind = i % 3
        if kind == 0:
            stem = stems[(7 * i) % n_entities]
            name = f"{stem.upper()}X TYRES PLC"
            url = f"https://www.{stem}x-tyres.example/"
            text = f"{stem.title()}x supplies rubber tyres and winter treads for heavy vehicles."
            rows.append(Row(name, f"S{i:03d}", url=url, text=text, patents=5, tokens=(stem + "x", "tyres")))
        elif kind == 1:
            root = names.root()
            for lead in ("I", "A"):
                name = f"{lead}{root.upper()}, INC."
                url = f"https://www.{lead.lower()}{root}.example/"
                text = f"{lead}{root} builds marine engineering services."
                rows.append(Row(name, f"S{i:03d}{lead}", url=url, text=text, patents=5,
                                tokens=(lead.lower() + root,)))
        else:
            a, b = stems[(5 * i) % n_entities], stems[(5 * i + 1) % n_entities]
            name = f"{a.upper()} {b.upper()} JOINT VENTURE"
            url = f"https://www.{a}-{b}.example/"
            text = "The joint venture combines biotherapeutics with wireless infrastructure."
            rows.append(Row(name, f"S{i:03d}", url=url, text=text, patents=5, tokens=(a, b, "joint", "venture")))

    rows += _type2(rng, max(1, n_entities // 6), FLAT_COMMON)
    rows += _singletons(names, round(116 * n_entities / 36), FLAT_COMMON, "SG")
    _check_common(rows, FLAT_COMMON)
    _check_blocklist(rows, ["www.directory.example", "listing.example"])
    return rows


def hub_rows(seed: int, n_big: int, n_pairs: int, n_singletons: int) -> list[Row]:
    """Big entities of 20-40 variants, bridged pairs, type-2 names and
    singletons; see the module docstring for the bridge layout."""
    rng = random.Random(seed)
    names = _Names(rng)
    rows: list[Row] = []
    for idx in range(n_big):
        stem = names.entity()
        upper = stem.upper()
        sector = SECTOR_NAMES[idx % len(SECTOR_NAMES)]
        geo_word, geo_loc = GEO[idx % len(GEO)]
        f1, f2 = HUB_COMMON[idx % len(HUB_COMMON)], HUB_COMMON[(idx + 1) % len(HUB_COMMON)]
        # Every variant carries a common word, which keeps those the most
        # frequent tokens next to stems with up to 40 variants.
        mids = [(f.upper() + geo, (f,) + extra) for f in (f1, f2)
                for geo, extra in (("", ()), (" " + geo_word, (geo_word.lower(),)))]
        variants = [(mid, extra, des) for mid, extra in mids for des in DESIGNATORS]
        rng.shuffle(variants)
        size = 20 + (13 * idx) % 21
        home = f"{stem[:4]}ville||us"
        for v, (mid, extra, des) in enumerate(variants[:size]):
            name = f"{upper} {mid} {des}"
            locs = geo_loc if len(extra) > 1 else (home if v % 3 == 0 else "")
            rows.append(
                Row(name, f"B{idx:03d}", locs, url=f"https://www.{stem}.com/", text=entity_text(stem, sector),
                    patents=5 + v % 7, tokens=(stem,) + extra)
            )

    for p in range(n_pairs):
        a, b = names.entity(), names.entity()
        ka, kb, jv = names.single(), names.single(), names.single()
        shared = f"https://www.{a}{b}.com/"
        sector = SECTOR_NAMES[p % len(SECTOR_NAMES)]
        for stem, key, side in ((a, ka, "A"), (b, kb, "B")):
            words = SECTORS[sector]
            for v, des in enumerate(DESIGNATORS[:6]):
                core = v < 3
                rows.append(
                    Row(
                        f"{stem.upper()} {des}",
                        f"P{p:02d}{side}",
                        url=shared if core else f"https://www.{stem}.de/",
                        text=f"{stem.title()} {key} {words}." if core else f"{stem.title()} {words}.",
                        patents=3,
                        tokens=(stem,),
                    )
                )
        for first, second, key in ((a, b, ka), (b, a, kb)):
            rows.append(
                Row(f"{first.upper()} {second.upper()} GROUP", f"P{p:02d}J", url=shared,
                    text=f"{key.title()} {jv} group.", patents=2, tokens=(first, second, "group"))
            )

    rows += _type2(rng, 6, HUB_COMMON)
    rows += _singletons(names, n_singletons, HUB_COMMON, "SG")
    _check_common(rows, HUB_COMMON)
    return rows


def _check_common(rows: list[Row], common: list[str]) -> None:
    """The designated common words must be exactly the corpus's most
    frequent tokens, or classes and url tokens shift."""
    presence: dict[str, int] = {}
    for row in rows:
        for token in set(row.tokens):
            presence[token] = presence.get(token, 0) + 1
    floor = min(presence.get(word, 0) for word in common)
    top_other = max(count for token, count in presence.items() if token not in common)
    if floor <= top_other:
        raise ValueError(f"common words too rare: {floor} <= {top_other}")


def _check_blocklist(rows: list[Row], hosts: list[str]) -> None:
    """The blocklist of size len(hosts) must take exactly the aggregators."""
    counts: dict[str, int] = {}
    for row in rows:
        if row.url:
            host = row.url.split("/")[2]
            counts[host] = counts.get(host, 0) + 1
    floor = min(counts[h] for h in hosts)
    top_other = max(c for h, c in counts.items() if h not in hosts)
    if floor <= top_other:
        raise ValueError(f"aggregator domains too rare: {floor} <= {top_other}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


FLAT_CONFIG = """\
run:
  seed: 0
augment:
  blocklist_k: 2
parse:
  common_words_n: 12
"""

# Big entities outnumber the aggregator domains here, so no blocklist: the
# aggregators then give singletons a shared domain, worth at most 2 + cos.
HUB_CONFIG = """\
run:
  seed: 0
augment:
  blocklist_k: 0
parse:
  common_words_n: 5
graph:
  threshold: 3.5
"""


def write_corpus(rows: list[Row], config_text: str, out_dir: Path, seed: int) -> Corpus:
    """Shuffle rows into record ids and write the four input files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    order = list(range(len(rows)))
    random.Random(seed + 1).shuffle(order)
    width = max(3, len(str(len(rows))))
    records = ["record_id\traw_name\tpatent_count\tlocations"]
    gold = ["record_id\tentity_id"]
    cache = []
    for new_idx, old_idx in enumerate(order, start=1):
        row = rows[old_idx]
        rid = f"r{new_idx:0{width}d}"
        records.append(f"{rid}\t{row.name}\t{row.patents}\t{row.locations}")
        gold.append(f"{rid}\t{row.entity}")
        if row.url is not None:
            cache.append(
                json.dumps(
                    {
                        "query_name": row.name,
                        "corrected_name": row.correction,
                        "first_url": row.url,
                        "first_text": row.text,
                        "fetched_at": FETCHED_AT,
                        "provider_id": PROVIDER,
                    },
                    ensure_ascii=False,
                )
            )
    paths = {
        "records": out_dir / "records.tsv",
        "gold": out_dir / "gold.tsv",
        "cache": out_dir / "cache.jsonl",
        "config": out_dir / "config.yaml",
    }
    paths["records"].write_text("\n".join(records) + "\n", encoding="utf-8")
    paths["gold"].write_text("\n".join(gold) + "\n", encoding="utf-8")
    paths["cache"].write_text("\n".join(cache) + "\n", encoding="utf-8")
    paths["config"].write_text(config_text, encoding="utf-8")
    return Corpus(
        n_records=len(rows),
        sha256={key: _sha256(path) for key, path in paths.items()},
        **paths,
    )
