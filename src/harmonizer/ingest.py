"""Input loading: assignee records, gold labels, location keys, and the TSV
format every table of the package shares.

The assignee table is a TSV with header ``record_id	raw_name	patent_count	locations``
where ``locations`` holds zero or more ``city|state|country`` keys separated by ``;``.
Gold standards are two-column TSVs mapping record_id to entity_id.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError

ASSIGNEE_HEADER = ["record_id", "raw_name", "patent_count", "locations"]
GOLD_HEADER = ["record_id", "entity_id"]


@dataclass(frozen=True, slots=True)
class AssigneeRecord:
    record_id: str
    raw_name: str
    patent_count: int
    locations: frozenset[str]


def read_tsv(path: str | Path, header: Sequence[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each non-blank data line of the TSV at
    ``path``, whose first field is stripped. InputError, naming the line
    where there is one, unless the file exists (``what`` names it), is
    UTF-8, its first line is ``header``, and each data line has one field
    per header column and a non-empty first field no earlier line holds."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{what} {path} is not a file" if path.exists() else f"{what} file not found: {path}")
    seen: set[str] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            first = next(reader, None)
            if first is None:
                raise InputError(f"{path}: empty file, expected header {header}")
            if first != header:
                raise InputError(f"{path}: bad header {first!r}, expected {header}")
            for line_no, fields in enumerate(reader, start=2):
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise InputError(f"{path} line {line_no}: expected {len(header)} fields, got {len(fields)}")
                key = fields[0] = fields[0].strip()
                if not key:
                    raise InputError(f"{path} line {line_no}: empty {header[0]}")
                if key in seen:
                    raise InputError(f"{path} line {line_no}: duplicate {header[0]} {key!r}")
                seen.add(key)
                yield line_no, fields
        except UnicodeDecodeError as exc:
            # The first line whose bytes do not survive a decode: no UTF-8
            # character holds a newline byte, so each line decodes alone.
            with path.open("rb") as raw:
                bad = next(n for n, line in enumerate(raw, 1) if line.decode("utf-8", "ignore").encode() != line)
            raise InputError(f"{path} line {bad}: not UTF-8 ({exc.reason})") from None


def write_tsv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """``header``, then one line per row of ``rows``, each a sequence of
    strings. InputError, naming the row by its first field, when a field
    holds a tab or a newline."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            line = "\t".join(row)
            if line.count("\t") != len(header) - 1 or "\n" in line:
                raise InputError(f"{path}: {header[0]} {row[0]!r}: field contains tab/newline")
            fh.write(line + "\n")


def harmonize_location(city: str, state: str, country: str) -> str:
    """Build the canonical ``city|state|country`` key from three components
    that hold no ``|``.

    Components are lowercased, trimmed, and internal whitespace is collapsed,
    so the key is idempotent under re-parsing.
    """
    parts = []
    for component in (city, state, country):
        component = re.sub(r"\s+", " ", (component or "").strip().lower())
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
    records: list[AssigneeRecord] = []
    parsed_locations: dict[str, frozenset[str]] = {}
    for line_no, (record_id, raw_name, count_s, locations_s) in read_tsv(path, ASSIGNEE_HEADER, "input"):
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
        records.append(AssigneeRecord(record_id, raw_name.strip(), count, locations))
    return records


def write_assignee_table(records: Iterable[AssigneeRecord], path: str | Path) -> None:
    rows = ((rec.record_id, rec.raw_name, str(rec.patent_count), ";".join(sorted(rec.locations))) for rec in records)
    write_tsv(path, ASSIGNEE_HEADER, rows)


def load_gold_standard(path: str | Path) -> dict[str, str]:
    """The record_id -> entity_id labels of a gold TSV, in file order."""
    gold: dict[str, str] = {}
    for line_no, (record_id, entity_id) in read_tsv(path, GOLD_HEADER, "gold"):
        entity_id = entity_id.strip()
        if not entity_id:
            raise InputError(f"{path} line {line_no}: empty entity_id")
        gold[record_id] = entity_id
    return gold


def write_gold_standard(gold: Mapping[str, str], path: str | Path) -> None:
    write_tsv(path, GOLD_HEADER, gold.items())
