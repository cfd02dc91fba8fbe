"""Knowledge augmentation: query a configurable HTML search provider for each
name, keep the spelling suggestion, the first result URL, and the landing
page's visible text. Everything fetched lands in an append-only JSONL cache
keyed by the exact query string, which pipeline runs only read.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import logging
import re
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields
from html.parser import HTMLParser
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Optional
from urllib.parse import urljoin, urlparse

import numpy as np

from .errors import ConfigError, InputError, ProviderError
from .parse import normalize_tokens

log = logging.getLogger(__name__)

MAX_TEXT_CHARS = 10_000

DEFAULT_SUGGESTION_SELECTOR = "a.spelling-suggestion"
DEFAULT_RESULT_SELECTOR = "a.result-link"


@dataclass(frozen=True, slots=True)
class AugmentationResult:
    """What one provider round-trip produced for one query name."""

    query_name: str
    corrected_name: Optional[str] = None
    first_url: Optional[str] = None
    first_text: Optional[str] = None
    fetched_at: float = 0.0
    provider_id: str = ""

    def __post_init__(self):
        if not self.query_name:
            raise InputError("query_name must be non-empty")
        if self.corrected_name is not None and not self.corrected_name.strip():
            raise InputError(f"{self.query_name!r}: corrected_name present but empty")
        if self.first_text is not None and self.first_url is None:
            raise InputError(f"{self.query_name!r}: first_text without first_url")

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "AugmentationResult":
        """The result one stripped cache line holds: one JSON object and
        nothing after it, with a query_name, no key that is not a field, and
        each value of a JSON type its field takes. Raises InputError
        otherwise."""
        try:
            payload, end = _DECODER.raw_decode(line)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"bad cache line: {exc}") from exc
        if end != len(line):
            raise InputError(f"bad cache line: extra data from char {end}")
        if type(payload) is not dict or "query_name" not in payload:
            raise InputError("bad cache line: not a JSON object with a query_name")
        if not payload.keys() <= _RESULT_TYPES.keys():
            raise InputError(f"bad cache line: unknown keys {sorted(payload.keys() - _RESULT_TYPES.keys())}")
        for key, value in payload.items():
            # Exact types: a JSON true is a bool, which is no number.
            if type(value) not in _RESULT_TYPES[key]:
                raise InputError(f"bad cache line: {key} cannot hold {json.dumps(value)[:40]}")
        return cls(**payload)


# The JSON types each key of a cache line may hold, by its field's annotation.
_JSON_TYPES = {"str": (str,), "Optional[str]": (str, type(None)), "float": (int, float)}
_RESULT_TYPES = {f.name: _JSON_TYPES[f.type] for f in fields(AugmentationResult)}
_DECODER = json.JSONDecoder()


class AugmentationCache:
    """JSONL-backed store keyed by the exact query name. Later lines win, so
    appending a fresh fetch overwrites without rewriting the file. Writes are
    serialized behind a lock; reads are plain dict lookups."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._store: dict[str, AugmentationResult] = {}
        self._lock = threading.Lock()
        # Byte length of the file without a torn final line, cut before the
        # next append so the fragment cannot run into a good line.
        self._torn_at: Optional[int] = None
        if self.path is not None and self.path.exists():
            self._load(self.path)

    def _load(self, path: Path) -> None:
        """Read every line. A final line that fails to parse and has no
        newline is a write cut off by a killed process: it is skipped with a
        warning. Any other bad line raises InputError."""
        offset = 0
        with path.open("rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    result = AugmentationResult.from_json(line) if line else None
                except (UnicodeDecodeError, InputError) as exc:
                    if raw.endswith(b"\n"):
                        raise InputError(f"{path} line {line_no}: {exc}") from exc
                    log.warning("%s line %d: skipping torn final line (%s)", path, line_no, exc)
                    self._torn_at = offset
                    break
                if result is not None:
                    self._store[result.query_name] = result
                offset += len(raw)

    def get(self, query_name: str) -> Optional[AugmentationResult]:
        return self._store.get(query_name)

    def put(self, result: AugmentationResult) -> None:
        with self._lock:
            self._store[result.query_name] = result
            if self.path is not None:
                with self.path.open("a", encoding="utf-8") as fh:
                    if self._torn_at is not None:
                        fh.truncate(self._torn_at)
                        self._torn_at = None
                    fh.write(result.to_json() + "\n")

    def __contains__(self, query_name: str) -> bool:
        return query_name in self._store


# --- HTML extraction --------------------------------------------------------

_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

_SELECTOR_RE = re.compile(r"^([a-zA-Z][\w-]*)?(?:\.([\w-]+))?(?:#([\w-]+))?$")


def _parse_selector(selector: str) -> tuple[Optional[str], Optional[str], Optional[str]]:
    match = _SELECTOR_RE.match(selector.strip())
    if not match or not any(match.groups()):
        raise ConfigError(f"unsupported selector {selector!r} (use tag, .class, tag.class, tag#id)")
    tag, cls, elem_id = match.groups()
    return (tag.lower() if tag else None, cls, elem_id)


class _SelectorFinder(HTMLParser):
    """Collect (attrs, text) of elements matching a simple selector."""

    def __init__(self, selector: str):
        super().__init__(convert_charrefs=True)
        self._tag, self._cls, self._id = _parse_selector(selector)
        self.matches: list[tuple[dict, str]] = []
        self._depth = 0
        self._active: list[tuple[int, dict, list[str]]] = []

    def _selector_hit(self, tag: str, attrs: dict) -> bool:
        if self._tag is not None and tag != self._tag:
            return False
        if self._cls is not None and self._cls not in (attrs.get("class") or "").split():
            return False
        if self._id is not None and attrs.get("id") != self._id:
            return False
        return True

    def handle_starttag(self, tag, attrs):
        attrs_map = {k: (v or "") for k, v in attrs}
        void = tag in _VOID_TAGS
        if self._selector_hit(tag, attrs_map):
            if void:
                self.matches.append((attrs_map, ""))
            else:
                self._active.append((self._depth, attrs_map, []))
        if not void:
            self._depth += 1

    def handle_startendtag(self, tag, attrs):
        attrs_map = {k: (v or "") for k, v in attrs}
        if self._selector_hit(tag, attrs_map):
            self.matches.append((attrs_map, ""))

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        self._depth = max(0, self._depth - 1)
        while self._active and self._active[-1][0] >= self._depth:
            _, attrs_map, parts = self._active.pop()
            self.matches.append((attrs_map, " ".join(" ".join(parts).split())))

    def handle_data(self, data):
        for frame in self._active:
            frame[2].append(data)

    def close(self):
        super().close()
        while self._active:
            _, attrs_map, parts = self._active.pop()
            self.matches.append((attrs_map, " ".join(" ".join(parts).split())))


def _find_all(html: str, selector: str) -> list[tuple[dict, str]]:
    finder = _SelectorFinder(selector)
    finder.feed(html)
    finder.close()
    return finder.matches


def extract_did_u_mean(result_page: str, selector: str = DEFAULT_SUGGESTION_SELECTOR) -> Optional[str]:
    """Text of the provider's spelling-suggestion element, or None.

    Nested markup is flattened and whitespace collapsed, so
    ``philips <b>healthcare</b>`` comes back as ``philips healthcare``.
    """
    for _, text in _find_all(result_page, selector):
        if text:
            return text
    return None


def extract_first_result_url(result_page: str, selector: str = DEFAULT_RESULT_SELECTOR) -> Optional[str]:
    """href of the first organic result link, or None."""
    for attrs, _ in _find_all(result_page, selector):
        href = attrs.get("href")
        if href:
            return href
    return None


class _TextExtractor(HTMLParser):
    _SKIP = frozenset({"script", "style", "noscript", "template"})

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1

    def handle_endtag(self, tag):
        if tag in self._SKIP and self._skip_depth > 0:
            self._skip_depth -= 1

    def handle_data(self, data):
        if self._skip_depth == 0 and data.strip():
            self.parts.append(data)


def extract_visible_text(page: str, limit: int = MAX_TEXT_CHARS) -> str:
    """Visible text of a page, whitespace-collapsed, truncated to ``limit``."""
    extractor = _TextExtractor()
    extractor.feed(page)
    extractor.close()
    text = " ".join(" ".join(extractor.parts).split())
    return text[:limit]


# --- domains ----------------------------------------------------------------

@functools.cache
def load_public_suffixes() -> frozenset[str]:
    """The bundled public-suffix snapshot, read once per process."""
    text = resources.files("harmonizer.data").joinpath("public_suffixes.txt").read_text("utf-8")
    suffixes = set()
    for line in text.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            suffixes.add(line)
    return frozenset(suffixes)


_IP_RE = re.compile(r"^\d{1,3}(\.\d{1,3}){3}$")


def extract_domain(url: str, suffixes: Optional[frozenset[str]] = None) -> str:
    """Registrable domain of a URL: one label plus the public suffix.

    ``http://patents.example.co.uk/x`` -> ``example.co.uk``. Hosts whose tail
    matches no snapshot entry treat the last label as the suffix. An IP
    address comes back whole, an IPv6 one without its brackets. Raises
    InputError when no host can be found.
    """
    if suffixes is None:
        suffixes = load_public_suffixes()
    if not url or not url.strip():
        raise InputError("empty URL")
    try:
        parsed = urlparse(url.strip())
        if not parsed.netloc and "://" not in url:
            parsed = urlparse("//" + url.strip())
    except ValueError as exc:  # a bracketed host that is no IPv6 address
        raise InputError(f"cannot parse URL {url!r}: {exc}") from exc
    host = (parsed.hostname or "").strip().rstrip(".")
    if not host or re.search(r"\s", host):
        raise InputError(f"cannot find a host in URL {url!r}")
    if _IP_RE.match(host) or ":" in host:
        return host
    labels = host.split(".")
    if any(not label for label in labels):
        raise InputError(f"malformed host in URL {url!r}")
    if labels and labels[0] == "www":
        labels = labels[1:]
    if not labels:
        raise InputError(f"malformed host in URL {url!r}")
    if len(labels) == 1:
        return labels[0]
    # Longest matching suffix wins; unknown tails fall back to the final label.
    suffix_len = 1
    for take in range(min(len(labels) - 1, 4), 1, -1):
        if ".".join(labels[-take:]) in suffixes:
            suffix_len = take
            break
    return ".".join(labels[-(suffix_len + 1):])


def registrable_domains(results: Iterable[Optional[AugmentationResult]]) -> list[Optional[str]]:
    """Each result's registrable domain: None without a result or URL, or
    when ``extract_domain`` rejects the URL. Each distinct URL is parsed once."""

    @functools.cache
    def domain(url: Optional[str]) -> Optional[str]:
        try:
            return extract_domain(url) if url else None
        except InputError:
            return None

    return [domain(result.first_url if result is not None else None) for result in results]


def build_frequent_domain_blocklist(domains: Iterable[Optional[str]], k: int) -> set[str]:
    """The k most frequent registrable domains (ties lexicographic); None,
    a record without a usable URL, is skipped.

    Directory-style hosts (encyclopedias, listings) dominate first-result URLs;
    blocking them keeps the domain condition meaningful.
    """
    counts = Counter(domain for domain in domains if domain is not None)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return {domain for domain, _ in ranked[:k]}


def preprocess_url_text(text: Optional[str], common_words: frozenset[str]) -> frozenset[str]:
    """Token set of a landing page: normalized like names, common words dropped."""
    if not text:
        return frozenset()
    return frozenset(t for t in normalize_tokens(text) if t not in common_words)


def build_domain_info(
    results: Iterable[Optional[AugmentationResult]],
    domains: Iterable[Optional[str]],
    blocklist: set[str] | frozenset[str],
    common_words: frozenset[str],
) -> tuple[np.ndarray, list[frozenset[str]]]:
    """Two columns, one entry per record, given each record's result and
    registrable domain: ``domain``, an int64 array of domain codes numbered
    by first appearance, -1 where the domain is None or blocklisted; and
    ``url_tokens``, each record's page token set, one shared set for the
    records with the same page text."""
    url_tokens = functools.cache(lambda text: preprocess_url_text(text, common_words))
    codes: dict[str, int] = {}
    domain, tokens = [], []
    for result, registrable in zip(results, domains, strict=True):
        blocked = registrable is None or registrable in blocklist
        domain.append(-1 if blocked else codes.setdefault(registrable, len(codes)))
        tokens.append(url_tokens(result.first_text if result is not None else None))
    return np.array(domain, dtype=np.int64), tokens


# --- provider ---------------------------------------------------------------

class SearchProvider:
    """Interface the augmentation stage talks to. Concrete adapters do their
    own rate limiting and retries; callers only see ProviderError."""

    provider_id: str = "abstract"
    suggestion_selector: str = DEFAULT_SUGGESTION_SELECTOR
    result_selector: str = DEFAULT_RESULT_SELECTOR
    base_url: Optional[str] = None

    def search_page(self, query: str) -> str:
        raise NotImplementedError

    def fetch_url(self, url: str) -> str:
        raise NotImplementedError


class HtmlSearchProvider(SearchProvider):
    """requests-backed adapter for any engine with an HTML results page."""

    RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

    def __init__(
        self,
        endpoint: str,
        query_param: str = "q",
        suggestion_selector: str = DEFAULT_SUGGESTION_SELECTOR,
        result_selector: str = DEFAULT_RESULT_SELECTOR,
        rate_limit_per_s: float = 1.0,
        timeout_s: float = 10.0,
        retries: int = 3,
        backoff_s: float = 0.5,
        session=None,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        if not endpoint:
            raise ConfigError("augment.provider.endpoint must be set to fetch (augment --offline only counts the cache)")
        if rate_limit_per_s <= 0:
            raise ConfigError("provider.rate_limit_per_s must be > 0")
        if timeout_s <= 0:
            raise ConfigError("provider.timeout_s must be > 0")
        if retries < 0:
            raise ConfigError("provider.retries must be >= 0")
        import requests  # deferred: offline paths never need it

        self._requests = requests
        self.endpoint = endpoint
        self.query_param = query_param
        self.suggestion_selector = suggestion_selector
        self.result_selector = result_selector
        self.base_url = endpoint
        self.provider_id = f"html:{urlparse(endpoint).netloc or endpoint}"
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self._session = session or requests.Session()
        self._sleep = sleep
        self._clock = clock
        self._min_interval = 1.0 / rate_limit_per_s
        self._last_request: dict[str, float] = {}
        self._lock = threading.Lock()

    def _throttle(self, host: str) -> None:
        while True:
            with self._lock:
                now = self._clock()
                last = self._last_request.get(host)
                wait = 0.0 if last is None else self._min_interval - (now - last)
                if wait <= 0:
                    self._last_request[host] = now
                    return
            self._sleep(wait)

    def _get(self, url: str, params: Optional[Mapping[str, str]] = None) -> str:
        host = urlparse(url).netloc
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.backoff_s * (2 ** (attempt - 1)))
            self._throttle(host)
            try:
                response = self._session.get(url, params=params, timeout=self.timeout_s)
            except self._requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code == 200:
                return response.text
            last_error = ProviderError(f"HTTP {response.status_code} from {url}")
            if response.status_code not in self.RETRYABLE_STATUS:
                raise ProviderError(f"HTTP {response.status_code} from {url}")
        raise ProviderError(f"giving up on {url} after {self.retries + 1} attempts: {last_error}")

    def search_page(self, query: str) -> str:
        return self._get(self.endpoint, params={self.query_param: query})

    def fetch_url(self, url: str) -> str:
        return self._get(url)


def fetch_augmentation(
    name: str,
    provider: SearchProvider,
    cache: AugmentationCache,
    *,
    refresh: bool = False,
    now=time.time,
) -> AugmentationResult:
    """Augment one name. Cache hits cost zero requests; misses go through the
    provider and are appended to the cache. Transient provider failure raises
    ProviderError for the caller to log and move past."""
    if not refresh:
        hit = cache.get(name)
        if hit is not None:
            return hit
    page = provider.search_page(name)
    corrected = extract_did_u_mean(page, provider.suggestion_selector)
    first_url = extract_first_result_url(page, provider.result_selector)
    if first_url and provider.base_url and not urlparse(first_url).scheme:
        first_url = urljoin(provider.base_url, first_url)
    first_text: Optional[str] = None
    if first_url:
        try:
            first_text = extract_visible_text(provider.fetch_url(first_url)) or None
        except ProviderError as exc:
            log.warning("landing page for %r failed (%s); keeping URL only", name, exc)
    result = AugmentationResult(
        query_name=name,
        corrected_name=corrected,
        first_url=first_url,
        first_text=first_text,
        fetched_at=now(),
        provider_id=provider.provider_id,
    )
    cache.put(result)
    return result


def fetch_names(
    names: Iterable[str],
    provider: SearchProvider,
    cache: AugmentationCache,
    threads: int,
    refresh: bool = False,
) -> dict[str, Optional[AugmentationResult]]:
    """Fill ``cache`` for every distinct name of ``names``: fetch each miss
    (every name, with ``refresh``) once, on up to ``threads`` threads, after
    making the cache file's directory. Returns each distinct name's result in
    first-seen order; a failed fetch is logged and resolves to None."""

    def fetch_one(name: str) -> Optional[AugmentationResult]:
        try:
            return fetch_augmentation(name, provider, cache, refresh=refresh)
        except ProviderError as exc:
            log.warning("augmentation failed for %r: %s", name, exc)
            return None

    names = list(dict.fromkeys(names))
    if cache.path is not None:
        cache.path.parent.mkdir(parents=True, exist_ok=True)
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        return dict(zip(names, pool.map(fetch_one, names)))
