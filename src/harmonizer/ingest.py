"""Input loading: assignee records, gold labels, location keys.

The assignee table is a TSV with header ``record_id	raw_name	patent_count	locations``
where ``locations`` holds zero or more ``city|state|country`` keys separated by ``;``.
Gold standards are two-column TSVs mapping record_id to entity_id.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import InputError

ASSIGNEE_HEADER = ["record_id", "raw_name", "patent_count", "locations"]
GOLD_HEADER = ["record_id", "entity_id"]


@dataclass(frozen=True, slots=True)
class AssigneeRecord:
    record_id: str
    raw_name: str
    patent_count: int = 0
    locations: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.record_id:
            raise InputError("record_id must be non-empty")
        if not self.raw_name or not self.raw_name.strip():
            raise InputError(f"record {self.record_id!r}: raw_name must be non-empty")
        if self.patent_count < 0:
            raise InputError(f"record {self.record_id!r}: patent_count must be >= 0")
        if "||" in self.locations:
            raise InputError(f"record {self.record_id!r}: the all-empty location key '||' names no place")


@dataclass(frozen=True, slots=True)
class GoldLabel:
    record_id: str
    entity_id: str


def harmonize_location(city: str, state: str, country: str) -> str:
    """Build the canonical ``city|state|country`` key.

    Components are lowercased, trimmed, and internal whitespace is collapsed,
    so the key is idempotent under re-parsing.
    """
    parts = []
    for component in (city, state, country):
        component = re.sub(r"\s+", " ", (component or "").strip().lower())
        if "|" in component:
            raise InputError(f"location component may not contain '|': {component!r}")
        parts.append(component)
    return "|".join(parts)


def _parse_locations(raw: str, line_no: int) -> frozenset[str]:
    keys = set()
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        components = chunk.split("|")
        if len(components) != 3:
            raise InputError(f"line {line_no}: location key needs city|state|country, got {chunk!r}")
        key = harmonize_location(*components)
        # An all-empty key carries no information and a record may not hold
        # it, so the reader drops it.
        if key != "||":
            keys.add(key)
    return frozenset(keys)


def load_assignee_table(path: str | Path) -> list[AssigneeRecord]:
    """Load and validate an assignee TSV. Raises InputError naming the bad
    line. Each distinct ``locations`` field is parsed once, at the first
    line that holds it."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    records: list[AssigneeRecord] = []
    seen: set[str] = set()
    parsed_locations: dict[str, frozenset[str]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected header {ASSIGNEE_HEADER}")
        if header != ASSIGNEE_HEADER:
            raise InputError(f"{path}: bad header {header!r}, expected {ASSIGNEE_HEADER}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise InputError(f"{path} line {line_no}: expected 4 fields, got {len(row)}")
            record_id, raw_name, count_s, locations_s = row
            record_id = record_id.strip()
            if not record_id:
                raise InputError(f"{path} line {line_no}: empty record_id")
            if record_id in seen:
                raise InputError(f"{path} line {line_no}: duplicate record_id {record_id!r}")
            seen.add(record_id)
            if not raw_name.strip():
                raise InputError(f"{path} line {line_no}: empty raw_name")
            try:
                count = int(count_s) if count_s.strip() else 0
            except ValueError:
                raise InputError(f"{path} line {line_no}: bad patent_count {count_s!r}")
            if count < 0:
                raise InputError(f"{path} line {line_no}: negative patent_count {count}")
            locations = parsed_locations.get(locations_s)
            if locations is None:
                locations = parsed_locations[locations_s] = _parse_locations(locations_s, line_no)
            records.append(
                AssigneeRecord(
                    record_id=record_id,
                    raw_name=raw_name.strip(),
                    patent_count=count,
                    locations=locations,
                )
            )
    return records


def write_assignee_table(records: Iterable[AssigneeRecord], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("\t".join(ASSIGNEE_HEADER) + "\n")
        for rec in records:
            for piece in (rec.record_id, rec.raw_name):
                if "\t" in piece or "\n" in piece:
                    raise InputError(f"record {rec.record_id!r}: field contains tab/newline")
            locs = ";".join(sorted(rec.locations))
            fh.write(f"{rec.record_id}\t{rec.raw_name}\t{rec.patent_count}\t{locs}\n")


def load_gold_standard(path: str | Path) -> list[GoldLabel]:
    """Load a record_id -> entity_id gold TSV."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"gold file not found: {path}")
    labels: list[GoldLabel] = []
    seen: set[str] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected header {GOLD_HEADER}")
        if header != GOLD_HEADER:
            raise InputError(f"{path}: bad header {header!r}, expected {GOLD_HEADER}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise InputError(f"{path} line {line_no}: expected 2 fields, got {len(row)}")
            record_id, entity_id = (row[0].strip(), row[1].strip())
            if not record_id or not entity_id:
                raise InputError(f"{path} line {line_no}: empty field")
            if record_id in seen:
                raise InputError(f"{path} line {line_no}: duplicate record_id {record_id!r}")
            seen.add(record_id)
            labels.append(GoldLabel(record_id=record_id, entity_id=entity_id))
    return labels


def write_gold_standard(labels: Iterable[GoldLabel], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("\t".join(GOLD_HEADER) + "\n")
        for label in labels:
            fh.write(f"{label.record_id}\t{label.entity_id}\n")

