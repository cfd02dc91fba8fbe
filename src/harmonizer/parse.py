"""Name parsing: unicode folding, punctuation mapping, legal-designator
stripping, the corpus common-word list, and the type-1/type-2 split.

Names made of nothing but designators keep their pre-strip tokens and carry a
``degenerate`` flag, as do names with no letter or digit, which have no tokens.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

# Punctuation is mapped to space, not deleted, so "AT&T-style" names keep
# their token boundaries. The ampersand becomes a word first.
DEFAULT_SUBSTITUTIONS: Mapping[str, str] = {"&": " and "}

_LANG_PREFIX_RE = re.compile(r"^[a-z]{2,4}:")
_NON_WORD_RE = re.compile(r"[^\w]|_", re.UNICODE)


class NameClass(enum.Enum):
    """Scoring class: TYPE2 names consist entirely of common words."""

    TYPE1 = 1
    TYPE2 = 2


@dataclass(frozen=True, slots=True)
class CleanName:
    cleaned: str
    tokens: tuple[str, ...]
    degenerate: bool


def fold_text(raw: str) -> str:
    """NFKD-fold, drop combining marks, lowercase."""
    if raw.isascii():
        # NFKD leaves ASCII as it is, and no ASCII character is combining.
        return raw.lower()
    decomposed = unicodedata.normalize("NFKD", raw)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch)).lower()


def normalize_tokens(raw: str) -> list[str]:
    """Fold, apply the substitutions, map punctuation to space, split."""
    text = fold_text(raw)
    for src, dst in DEFAULT_SUBSTITUTIONS.items():
        text = text.replace(src, dst)
    text = _NON_WORD_RE.sub(" ", text)
    return text.split()


class LegalDesignatorDictionary:
    """Whole-token designator sequences, each a non-empty list of non-empty
    tokens, matched longest-first at the tail. The lengths of the entries
    are indexed by their last token."""

    def __init__(self, sequences: Iterable[Sequence[str]]):
        self.entries: frozenset[tuple[str, ...]] = frozenset(tuple(seq) for seq in sequences)
        lengths: dict[str, set[int]] = {}
        for entry in self.entries:
            lengths.setdefault(entry[-1], set()).add(len(entry))
        self._lengths = {last: sorted(held, reverse=True) for last, held in lengths.items()}

    @classmethod
    def from_file(cls, path: str | Path | None) -> "LegalDesignatorDictionary":
        """Parse the dictionary file (one sequence per line, optional lang: prefix)."""
        if path is None:
            text = resources.files("harmonizer.data").joinpath("legal_designators.txt").read_text("utf-8")
        else:
            text = Path(path).read_text(encoding="utf-8")
        sequences = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            line = _LANG_PREFIX_RE.sub("", line)
            tokens = normalize_tokens(line)
            if tokens:
                sequences.append(tokens)
        return cls(sequences)

    def tail_match(self, tokens: Sequence[str]) -> int:
        """Length of the longest designator suffix of ``tokens`` (0 if none).
        Only the lengths of the entries that end in the last token are
        tried, longest first."""
        if tokens:
            for length in self._lengths.get(tokens[-1], ()):
                if length <= len(tokens) and tuple(tokens[-length:]) in self.entries:
                    return length
        return 0


def strip_legal_suffixes(tokens: Sequence[str], designators: LegalDesignatorDictionary) -> list[str]:
    """Remove designator sequences from the token tail, repeatedly."""
    out = list(tokens)
    while out:
        matched = designators.tail_match(out)
        if matched == 0:
            break
        del out[-matched:]
    return out


def clean_name(
    raw: str,
    correction: Optional[str],
    designators: LegalDesignatorDictionary,
) -> CleanName:
    """Clean one name. When a spelling correction is given it replaces the
    raw text as the starting point; the raw name stays the record identity.
    A name with no letter or digit ("---") has no tokens and is degenerate.
    """
    source = correction if correction and correction.strip() else raw
    base_tokens = normalize_tokens(source)
    tokens = strip_legal_suffixes(base_tokens, designators)
    degenerate = len(tokens) == 0
    if degenerate:
        # Nothing but designators ("L.L.C."): keep the pre-strip form.
        tokens = list(base_tokens)
    return CleanName(
        cleaned=" ".join(tokens),
        tokens=tuple(tokens),
        degenerate=degenerate,
    )


def document_frequencies(names: Iterable[CleanName]) -> Counter[str]:
    """How many of ``names`` hold each token, counting a token once per name."""
    return Counter(token for name in names for token in set(name.tokens))


def build_common_word_list(counts: Mapping[str, int], n: int) -> frozenset[str]:
    """The n tokens held by the most names, ties lexicographic, from
    ``document_frequencies``."""
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return frozenset(token for token, _ in ranked[:n])


def classify_name_type(tokens: Sequence[str], common: frozenset[str]) -> NameClass:
    """TYPE2 iff every token is a common word, so an empty list is TYPE2."""
    return NameClass.TYPE2 if common.issuperset(tokens) else NameClass.TYPE1
