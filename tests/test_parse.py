"""Name cleaning: folding, tokenization, designator stripping, common words."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DESIGNATORS
from harmonizer.parse import (
    CleanName,
    LegalDesignatorDictionary,
    NameClass,
    build_common_word_list,
    classify_name_type,
    document_frequencies,
    clean_name,
    fold_text,
    normalize_tokens,
    strip_legal_suffixes,
)
from oracles import longest_first_tail_match, reference_fold_text


class TestFoldText:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Müller", "muller"),
            ("ÇA İRKET", "ca irket"),
            ("ŁÓDŹ", "łodz"),
            ("ＦＵＪＩＴＳＵ", "fujitsu"),
            ("Nestlé S.A.", "nestle s.a."),
            ("ACME", "acme"),
        ],
    )
    def test_folding(self, raw, expected):
        assert fold_text(raw) == expected

    def test_ascii_matches_reference(self):
        for code in range(128):
            assert fold_text(chr(code)) == reference_fold_text(chr(code))
        every = "".join(map(chr, range(128)))
        assert fold_text(every) == reference_fold_text(every) == every.lower()

    @settings(max_examples=300)
    @given(st.text() | st.text(st.characters(max_codepoint=127)))
    def test_matches_reference(self, raw):
        assert fold_text(raw) == reference_fold_text(raw)

    def test_idempotent_samples(self):
        for raw in ["Müller", "Société Générale", "ＡＢＣ株式会社"]:
            once = fold_text(raw)
            assert fold_text(once) == once


class TestNormalizeTokens:
    def test_ampersand_becomes_and(self):
        assert normalize_tokens("JOHNSON & JOHNSON") == ["johnson", "and", "johnson"]

    def test_punctuation_to_space(self):
        assert normalize_tokens("E.I. DU-PONT (DE) NEMOURS_CO") == [
            "e", "i", "du", "pont", "de", "nemours", "co",
        ]

    def test_unicode(self):
        assert normalize_tokens("NESTLÉ S.A.") == ["nestle", "s", "a"]

    def test_empty(self):
        assert normalize_tokens("...( )...") == []


class TestDesignatorDictionary:
    def test_from_iterable(self):
        d = LegalDesignatorDictionary([("inc",), ("co", "ltd")])
        assert d.entries == {("inc",), ("co", "ltd")}

    def test_tail_match_longest_first(self):
        d = LegalDesignatorDictionary([("ltd",), ("co", "ltd")])
        assert d.tail_match(["acme", "co", "ltd"]) == 2
        assert d.tail_match(["acme", "ltd"]) == 1
        assert d.tail_match(["acme"]) == 0

    def test_default_dictionary_entries(self):
        d = DESIGNATORS
        for seq in [("inc",), ("gmbh",), ("kabushiki", "kaisha"), ("co", "ltd"), ("aktiengesellschaft",)]:
            assert seq in d.entries, seq

    def test_every_default_entry_as_a_suffix(self):
        d = DESIGNATORS
        for entry in sorted(d.entries):
            for prefix in ([], ["acme"], ["acme", "co"], list(entry)):
                tokens = prefix + list(entry)
                assert d.tail_match(tokens) == longest_first_tail_match(d, tokens) >= len(entry), tokens

    def test_overlapping_entries(self):
        d = LegalDesignatorDictionary(
            [("ltd",), ("co", "ltd"), ("x", "co", "ltd"), ("co",), ("ltd", "co"), ("a", "b", "c")]
        )
        for tokens in (["x", "co", "ltd"], ["y", "co", "ltd"], ["ltd", "co"], ["co"], ["b", "c"], ["a", "b", "c"], []):
            assert d.tail_match(tokens) == longest_first_tail_match(d, tokens), tokens
        assert d.tail_match(("x", "co", "ltd")) == 3 and d.tail_match(["b", "c"]) == 0

    @given(
        st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), max_size=8),
        st.lists(st.sampled_from("abcde"), max_size=7),
    )
    def test_tail_match_matches_longest_first_oracle(self, entries, tokens):
        d = LegalDesignatorDictionary(entries)
        assert d.tail_match(tokens) == longest_first_tail_match(d, tokens)


class TestStripLegalSuffixes:
    def test_single(self):
        d = DESIGNATORS
        assert strip_legal_suffixes(["nokia", "corporation"], d) == ["nokia"]

    def test_multi_token_tail(self):
        d = DESIGNATORS
        assert strip_legal_suffixes(["toyo", "seikan", "kabushiki", "kaisha"], d) == ["toyo", "seikan"]

    def test_repeated_strip(self):
        # "HOLDING CO., LTD." leaves "holding" only after "co ltd" goes first.
        d = LegalDesignatorDictionary([("co", "ltd"), ("holding",)])
        assert strip_legal_suffixes(["acme", "holding", "co", "ltd"], d) == ["acme"]

    def test_interior_off_by_default(self):
        d = DESIGNATORS
        assert strip_legal_suffixes(["acme", "gmbh", "packaging"], d) == ["acme", "gmbh", "packaging"]

    def test_all_designators_strip_to_nothing(self):
        d = DESIGNATORS
        assert strip_legal_suffixes(["l", "l", "c"], d) == []


class TestCleanName:
    def test_basic(self):
        cn = clean_name("NOKIA CORPORATION", None, DESIGNATORS)
        assert cn.cleaned == "nokia"
        assert cn.tokens == ("nokia",)
        assert not cn.degenerate
        # A name holds its parse only: its record and class live elsewhere.
        assert [f.name for f in dataclasses.fields(cn)] == ["cleaned", "tokens", "degenerate"]

    def test_correction_replaces_raw(self):
        cn = clean_name("NOKAI CORPORATION", "NOKIA CORPORATION", DESIGNATORS)
        assert cn.tokens == ("nokia",)

    def test_blank_correction_ignored(self):
        cn = clean_name("NOKIA OYJ", "   ", DESIGNATORS)
        assert cn.tokens == ("nokia",)

    def test_degenerate_keeps_base_tokens(self):
        cn = clean_name("L.L.C.", None, DESIGNATORS)
        assert cn.degenerate
        assert cn.tokens == ("l", "l", "c")

    @pytest.mark.parametrize("raw,correction", [("...", None), ("- -", "  "), ("ACME", "---")])
    def test_unparseable_is_degenerate_with_no_tokens(self, raw, correction):
        # Nothing left after folding and punctuation, the correction's or
        # the raw name's: an empty, degenerate name.
        assert clean_name(raw, correction, DESIGNATORS) == CleanName("", (), degenerate=True)

    def test_ampersand(self):
        assert clean_name("AT&T CORP", None, DESIGNATORS).tokens == ("at", "and", "t")

    def test_idempotent_on_cleaned_text(self):
        for raw in ["NOKIA CORPORATION", "TOYO SEIKAN KABUSHIKI KAISHA", "SIEMENS A.G."]:
            cn = clean_name(raw, None, DESIGNATORS)
            again = clean_name(cn.cleaned, None, DESIGNATORS)
            assert again.tokens == cn.tokens

    @given(st.text(min_size=1, max_size=40))
    def test_never_returns_empty_tokens(self, raw):
        cn = clean_name(raw, None, DESIGNATORS)
        if not normalize_tokens(raw):
            return
        assert len(cn.tokens) >= 1
        assert cn.cleaned


class TestCommonWords:
    def _counts(self, texts):
        return document_frequencies(clean_name(t, None, DESIGNATORS) for t in texts)

    def test_presence_counted_once_per_name(self):
        # "alpha alpha beta" counts alpha once.
        counts = self._counts(["ALPHA ALPHA BETA", "ALPHA GAMMA", "BETA GAMMA", "GAMMA DELTA"])
        assert counts == {"alpha": 2, "beta": 2, "gamma": 3, "delta": 1}
        assert build_common_word_list(counts, 1) == {"gamma"}

    def test_tie_breaks_lexicographic(self):
        common = build_common_word_list(self._counts(["ZETA ALPHA", "ZETA ALPHA", "BETA", "BETA"]), 2)
        # alpha, beta, zeta all have count 2; lexicographic order wins.
        assert common == {"alpha", "beta"}

    def test_counts_post_strip(self):
        # "corporation" is stripped before counting, so it cannot be common.
        counts = self._counts(["A CORPORATION", "B CORPORATION", "C CORPORATION", "A B"])
        assert "corporation" not in build_common_word_list(counts, 2)

    def test_zero_n(self):
        assert build_common_word_list(self._counts(["A B"]), 0) == frozenset()


class TestClassifyNameType:
    def test_type2_all_common(self):
        counts = document_frequencies(clean_name(t, None, DESIGNATORS) for t in ["GLOBAL SYSTEMS", "GLOBAL TECH", "SYSTEMS TECH"])
        common = build_common_word_list(counts, 3)
        assert classify_name_type(("global", "systems"), common) is NameClass.TYPE2
        assert classify_name_type(("global", "nokia"), common) is NameClass.TYPE1

    @given(st.lists(st.sampled_from("abcdef"), max_size=5), st.sets(st.sampled_from("abcdef")))
    @example([], set())
    def test_type2_exactly_when_every_token_is_common(self, tokens, common_words):
        common = frozenset(common_words)
        want = NameClass.TYPE2 if all(t in common_words for t in tokens) else NameClass.TYPE1
        assert classify_name_type(tokens, common) is want
