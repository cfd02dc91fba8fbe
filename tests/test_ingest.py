"""Record loading, location keys, and the checks every TSV table shares."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonizer import ingest
from harmonizer.errors import InputError
from harmonizer.ingest import (
    ASSIGNEE_HEADER,
    GOLD_HEADER,
    AssigneeRecord,
    harmonize_location,
    load_assignee_table,
    load_gold_standard,
    write_assignee_table,
    write_gold_standard,
)
from harmonizer.pipeline import MAPPING_HEADER, read_mapping


class TestAssigneeRecord:
    def test_valid(self):
        rec = AssigneeRecord("r1", "ACME CORP", 3, frozenset({"york||uk"}))
        assert rec.patent_count == 3

    def test_defaults(self, tmp_path):
        # The reader fills a blank count and location field; the record has no defaults.
        path = tmp_path / "t.tsv"
        path.write_text("record_id\traw_name\tpatent_count\tlocations\nr1\tACME\t\t\n")
        assert load_assignee_table(path) == [AssigneeRecord("r1", "ACME", 0, frozenset())]


class TestHarmonizeLocation:
    def test_basic(self):
        assert harmonize_location(" New  York ", "NY", "US") == "new york|ny|us"

    def test_empty_components(self):
        assert harmonize_location("", "", "JP") == "||jp"

    @given(
        st.text(alphabet=st.characters(blacklist_characters="|\t\n;"), max_size=20),
        st.text(alphabet=st.characters(blacklist_characters="|\t\n;"), max_size=20),
        st.text(alphabet=st.characters(blacklist_characters="|\t\n;"), max_size=20),
    )
    def test_idempotent(self, city, state, country):
        key = harmonize_location(city, state, country)
        assert harmonize_location(*key.split("|")) == key


class TestTableIO:
    def test_round_trip(self, tmp_path):
        records = [
            AssigneeRecord("r1", "ACME CORP", 5, frozenset({"york||uk", "leeds||uk"})),
            AssigneeRecord("r2", "BETA GMBH", 0, frozenset()),
        ]
        path = tmp_path / "t.tsv"
        write_assignee_table(records, path)
        assert load_assignee_table(path) == records

    def test_blank_count_defaults_to_zero(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("record_id\traw_name\tpatent_count\tlocations\nr1\tACME\t\t\n")
        assert load_assignee_table(path)[0].patent_count == 0

    def test_all_empty_location_key_dropped(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("record_id\traw_name\tpatent_count\tlocations\nr1\tACME\t1\t||\n")
        assert load_assignee_table(path)[0].locations == frozenset()

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("r1\tACME\tabc\t\n", "patent_count"),
            ("r1\tACME\t-2\t\n", "negative"),
            ("r1\t\t1\t\n", "empty raw_name"),
            ("r1\tACME\t1\tyork|uk\n", "city|state|country"),
        ],
    )
    def test_bad_rows(self, tmp_path, body, fragment):
        path = tmp_path / "t.tsv"
        path.write_text("record_id\traw_name\tpatent_count\tlocations\n" + body)
        with pytest.raises(InputError, match=fragment):
            load_assignee_table(path)

    def test_each_locations_field_parsed_once(self, tmp_path, monkeypatch):
        fields = ["york||uk", "", "york||uk;leeds||uk", "york||uk", " York | | UK ", "", "leeds||uk;york||uk"]
        path = tmp_path / "t.tsv"
        rows = [f"r{i}\tACME {i}\t1\t{field}" for i, field in enumerate(fields)]
        path.write_text("record_id\traw_name\tpatent_count\tlocations\n" + "\n".join(rows) + "\n")
        parsed = Counter()
        parse = ingest._parse_locations

        def counted(raw, line_no):
            parsed[raw] += 1
            return parse(raw, line_no)

        monkeypatch.setattr(ingest, "_parse_locations", counted)
        records = load_assignee_table(path)
        assert [record.locations for record in records] == [parse(field, 0) for field in fields]
        assert parsed == Counter(set(fields))

    def test_bad_locations_field_reported_at_its_first_line(self, tmp_path):
        # The bad field on lines 3 and 7.
        rows = ["r1\tA\t1\tyork||uk", "r2\tB\t1\tyork|uk"] + [f"r{i}\tC\t1\t" for i in (3, 4, 5)] + ["r6\tF\t1\tyork|uk"]
        path = tmp_path / "t.tsv"
        path.write_text("record_id\traw_name\tpatent_count\tlocations\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match="line 3: location key"):
            load_assignee_table(path)
        path.write_text("record_id\traw_name\tpatent_count\tlocations\n" + "\n".join(rows[:1] + rows[2:]) + "\n")
        with pytest.raises(InputError, match="line 6: location key"):
            load_assignee_table(path)

    def test_write_rejects_tab_in_name(self, tmp_path):
        rec = AssigneeRecord("r1", "ACME\tCORP", 0, frozenset())
        with pytest.raises(InputError, match="tab"):
            write_assignee_table([rec], tmp_path / "t.tsv")


class TestGoldIO:
    def test_round_trip(self, tmp_path):
        labels = {"r2": "e1", "r1": "e1", "r3": "e2"}
        path = tmp_path / "g.tsv"
        write_gold_standard(labels, path)
        assert list(load_gold_standard(path).items()) == list(labels.items())

    def test_empty_entity_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("record_id\tentity_id\nr1\te1\nr2\t \n")
        with pytest.raises(InputError, match="line 3: empty entity_id"):
            load_gold_standard(path)


# Each reader of a TSV table, with its header and two good data lines.
READERS = {
    "assignee": (load_assignee_table, ASSIGNEE_HEADER, [["r1", "ACME", "1", ""], ["r2", "BETA", "2", "york||uk"]]),
    "gold": (load_gold_standard, GOLD_HEADER, [["r1", "e1"], ["r2", "e1"]]),
    "mapping": (read_mapping, MAPPING_HEADER, [["r1", "ACME", "0", "ACME"], ["r2", "BETA", "1", "BETA"]]),
}


def table(lines, end="\n"):
    return "".join("\t".join(line) + end for line in lines)


@pytest.mark.parametrize(
    "case",
    [
        "missing_file",
        "empty_file",
        "bad_header",
        "wrong_field_count",
        "empty_first_column",
        "repeated_first_column",
        "blank_line",
        "crlf",
        "not_utf8",
    ],
)
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_table_shares_the_line_checks(tmp_path, reader, case):
    """An error names its line where it has one; a blank line is skipped
    and CRLF line ends read as LF ones do. A byte that is not UTF-8 is
    named by its own line, although the file is decoded ahead of the line
    being parsed."""
    load, header, (first, second) = READERS[reader]
    n = len(header)
    text, message = {
        "missing_file": (None, "file not found: "),
        "empty_file": ("", "empty file, expected header"),
        "bad_header": (table([["id", *header[1:]], first, second]), r"bad header \['id'"),
        "wrong_field_count": (table([header, first, second[:-1]]), f"line 3: expected {n} fields, got {n - 1}"),
        "empty_first_column": (table([header, first, [" ", *second[1:]]]), "line 3: empty record_id"),
        "repeated_first_column": (table([header, first, [" r1", *second[1:]]]), "line 3: duplicate record_id 'r1'"),
        "blank_line": (table([header, first, [], second, []]), None),
        "crlf": (table([header, first, second], "\r\n"), None),
        "not_utf8": (table([header, first, second]).replace("r2", "r\udcff2"), "line 3: not UTF-8"),
    }[case]
    path = tmp_path / "table.tsv"
    if text is not None:
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
    if message is not None:
        with pytest.raises(InputError, match=message):
            load(path)
        return
    plain = tmp_path / "plain.tsv"
    plain.write_text(table([header, first, second]), encoding="utf-8")
    assert load(path) == load(plain)
    assert len(load(path)) == 2
