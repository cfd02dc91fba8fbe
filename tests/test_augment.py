"""Search augmentation: cache, HTML extraction, domains, provider client."""

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import PROVIDER
from harmonizer import augment
from harmonizer.augment import (
    MAX_TEXT_CHARS,
    AugmentationCache,
    AugmentationResult,
    HtmlSearchProvider,
    build_domain_info,
    build_frequent_domain_blocklist,
    extract_did_u_mean,
    extract_domain,
    extract_first_result_url,
    extract_visible_text,
    fetch_augmentation,
    load_public_suffixes,
    preprocess_url_text,
    registrable_domains,
)
from harmonizer.config import PipelineConfig
from harmonizer.errors import ConfigError, InputError, ProviderError

SEARCH_PAGE = (Path(__file__).parent / "data" / "search_page.html").read_text()
LANDING_PAGE = (Path(__file__).parent / "data" / "landing_page.html").read_text()
SUGGESTION, RESULT = PROVIDER["suggestion_selector"], PROVIDER["result_selector"]


def result(name="ACME", **kwargs) -> AugmentationResult:
    defaults = dict(
        query_name=name,
        corrected_name=None,
        first_url=None,
        first_text=None,
        fetched_at=1700000000.0,
        provider_id="test",
    )
    defaults.update(kwargs)
    return AugmentationResult(**defaults)


class TestAugmentationResult:
    def test_json_round_trip(self):
        r = result(corrected_name="ACME INC", first_url="https://acme.com/", first_text="Acme makes anvils")
        assert AugmentationResult.from_json(r.to_json()) == r

    def test_empty_query_rejected(self):
        with pytest.raises(InputError):
            result(name="")

    def test_blank_correction_rejected(self):
        with pytest.raises(InputError):
            result(corrected_name="   ")

    def test_text_without_url_rejected(self):
        with pytest.raises(InputError):
            result(first_text="some page text")

    def test_unknown_json_key_rejected(self):
        line = json.dumps(
            {
                "query_name": "A",
                "corrected_name": None,
                "first_url": None,
                "first_text": None,
                "fetched_at": 0.0,
                "provider_id": "t",
                "surprise": 1,
            }
        )
        with pytest.raises(InputError, match="surprise"):
            AugmentationResult.from_json(line)

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("5", "not a JSON object"),
            ("[]", "not a JSON object"),
            ("null", "not a JSON object"),
            ('{"first_url": null}', "not a JSON object with a query_name"),
            ('{"query_name": 5}', "query_name"),
            ('{"query_name": "A", "corrected_name": 7}', "corrected_name"),
            ('{"query_name": "A", "first_url": 5}', "first_url"),
            ('{"query_name": "A", "first_url": "https://a.example/", "first_text": ["a"]}', "first_text"),
            ('{"query_name": "A", "fetched_at": true}', "fetched_at"),
            ('{"query_name": "A", "fetched_at": "0"}', "fetched_at"),
            ('{"query_name": "A", "provider_id": null}', "provider_id"),
            ("[" * 100_000 + "]" * 100_000, ""),
            ("1" * 5_000, ""),
        ],
        ids=[
            "int", "array", "null", "no query", "query", "correction", "url", "text", "bool time", "str time", "provider",
            "deep", "long int",
        ],
    )
    def test_json_of_another_shape_rejected(self, line, reason):
        with pytest.raises(InputError, match=f"bad cache line: {reason}"):
            AugmentationResult.from_json(line)

    def test_integer_fetch_time_accepted(self):
        line = '{"query_name": "A", "fetched_at": 5}'
        assert AugmentationResult.from_json(line) == AugmentationResult("A", fetched_at=5)


class TestAugmentationCache:
    def test_put_get(self, fresh_cache):
        r = result()
        fresh_cache.put(r)
        assert fresh_cache.get("ACME") == r
        assert "ACME" in fresh_cache
        assert "OTHER" not in fresh_cache

    def test_persists_to_disk(self, tmp_path):
        path = tmp_path / "c.jsonl"
        AugmentationCache(path).put(result())
        assert AugmentationCache(path).get("ACME") is not None

    def test_later_lines_win(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [
            result(first_url=None).to_json(),
            result(first_url="https://acme.com/").to_json(),
        ]
        path.write_text("\n".join(lines) + "\n")
        assert AugmentationCache(path).get("ACME").first_url == "https://acme.com/"

    def test_put_appends_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = AugmentationCache(path)
        cache.put(result("A"))
        cache.put(result("B"))
        assert len(path.read_text().strip().splitlines()) == 2

    def test_concurrent_puts(self, tmp_path):
        cache = AugmentationCache(tmp_path / "c.jsonl")
        names = [f"N{i}" for i in range(50)]
        threads = [threading.Thread(target=cache.put, args=(result(n),)) for n in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(cache.get(n) == result(n) for n in names)
        reloaded = AugmentationCache(tmp_path / "c.jsonl")
        assert all(reloaded.get(n) == result(n) for n in names)

    def test_torn_final_line_skipped_with_warning(self, tmp_path, caplog):
        # A killed fetch leaves the last line cut off, without its newline.
        path = tmp_path / "c.jsonl"
        torn = result("B", first_url="https://b.example/").to_json()[:-12]
        path.write_text(result("A").to_json() + "\n" + torn)
        with caplog.at_level("WARNING", logger="harmonizer.augment"):
            cache = AugmentationCache(path)
        assert "A" in cache and "B" not in cache
        assert "line 2" in caplog.text and "torn" in caplog.text
        # The next append replaces the fragment instead of running into it.
        cache.put(result("C"))
        reloaded = AugmentationCache(path)
        assert "A" in reloaded and "B" not in reloaded and "C" in reloaded

    @pytest.mark.parametrize("where", ["middle", "final with newline"])
    def test_corrupt_line_elsewhere_raises(self, tmp_path, where):
        path = tmp_path / "c.jsonl"
        lines = [result("A").to_json(), result("B").to_json()[:-12]]
        if where == "middle":
            lines.append(result("C").to_json())
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="line 2: bad cache line"):
            AugmentationCache(path)

    @pytest.mark.parametrize("where", ["middle", "final with newline", "final without newline"])
    def test_line_of_another_shape(self, tmp_path, caplog, where):
        # Valid JSON of the wrong shape is a bad line like any other: an
        # error that names it, or skipped when torn.
        path = tmp_path / "c.jsonl"
        lines = [result("A").to_json(), json.dumps({"query_name": "B", "first_url": 5})]
        if where == "middle":
            lines.append(result("C").to_json())
        path.write_text("\n".join(lines) + ("" if where == "final without newline" else "\n"))
        if where == "final without newline":
            with caplog.at_level("WARNING", logger="harmonizer.augment"):
                cache = AugmentationCache(path)
            assert "A" in cache and "B" not in cache
            assert "line 2" in caplog.text and "torn" in caplog.text
        else:
            with pytest.raises(InputError, match="line 2: bad cache line: first_url"):
                AugmentationCache(path)


    @pytest.mark.parametrize(
        "line, reason",
        [
            (result("B").to_json() + " " + result("C").to_json(), "extra data"),
            ("\ufeff" + result("B").to_json(), ""),
            ('{"query_name": "B", "fetched_at": true}', "fetched_at"),
            ('{"query_name": "B", "surprise": 1}', "unknown keys \\['surprise'\\]"),
        ],
        ids=["two objects", "bom", "bool time", "unknown key"],
    )
    @pytest.mark.parametrize("where", ["middle", "final without newline"])
    def test_bad_line_named_or_skipped_when_torn(self, tmp_path, caplog, line, reason, where):
        path = tmp_path / "c.jsonl"
        lines = [result("A").to_json(), line] + ([result("C").to_json()] if where == "middle" else [])
        path.write_text("\n".join(lines) + ("\n" if where == "middle" else ""), encoding="utf-8")
        if where == "middle":
            with pytest.raises(InputError, match=f"line 2: bad cache line: {reason}"):
                AugmentationCache(path)
        else:
            with caplog.at_level("WARNING", logger="harmonizer.augment"):
                cache = AugmentationCache(path)
            assert "A" in cache and "B" not in cache
            assert "line 2" in caplog.text and "torn" in caplog.text


class TestExtraction:
    def test_did_u_mean_from_fixture(self):
        # Nested <b> must flatten into a single suggestion string.
        assert extract_did_u_mean(SEARCH_PAGE, SUGGESTION) == "veltrona corporation"

    def test_did_u_mean_absent(self):
        assert extract_did_u_mean("<html><body><p>no suggestions</p></body></html>", SUGGESTION) is None

    def test_first_result_url_from_fixture(self):
        assert extract_first_result_url(SEARCH_PAGE, RESULT) == "https://www.veltrona.com/"

    def test_first_result_skips_other_anchors(self):
        # The sponsored ad anchor has a different class and must be ignored.
        page = SEARCH_PAGE.replace('class="result-link"', 'class="other"', 0)
        assert "ads.example" not in (extract_first_result_url(page, RESULT) or "")

    def test_selector_by_id(self):
        html = '<div><a id="main" href="/x">X</a></div>'
        assert extract_first_result_url(html, "a#main") == "/x"

    def test_selector_class_only(self):
        html = '<span class="hit">go</span><a class="hit" href="/y">Y</a>'
        assert extract_did_u_mean(html, ".hit") == "go"

    def test_bad_selector_rejected(self):
        with pytest.raises(ConfigError):
            extract_did_u_mean("<p></p>", "a[href]")

    def test_visible_text_skips_scripts(self):
        text = extract_visible_text(LANDING_PAGE)
        assert "wireless network infrastructure" in text
        assert "analytics" not in text
        assert "hidden template text" not in text
        assert "sans-serif" not in text

    def test_visible_text_collapses_whitespace(self):
        assert extract_visible_text("<p>a\n\n   b</p>") == "a b"

    def test_visible_text_truncates(self):
        page = "<p>" + "word " * 5000 + "</p>"
        assert len(extract_visible_text(page)) <= MAX_TEXT_CHARS


class TestExtractDomain:
    @pytest.mark.parametrize(
        "url,expected",
        [
            ("https://www.nokia.com/about", "nokia.com"),
            ("http://patents.example.co.uk/x", "example.co.uk"),
            ("https://bureau.gouv.fr", "bureau.gouv.fr" if "gouv.fr" in load_public_suffixes() else "gouv.fr"),
            ("https://deep.sub.acme.com/", "acme.com"),
            ("ftp://files.acme.de", "acme.de"),
            ("www.acme.co.jp/path", "acme.co.jp"),
            ("https://user:pw@www.acme.com:8080/", "acme.com"),
            ("http://[2001:db8::1]/a", "2001:db8::1"),
            ("http://[2001:DB8::2]:8080/a", "2001:db8::2"),
            ("https://user:pw@[2001:db8::3]:8080/", "2001:db8::3"),
            ("https://acme.com.", "acme.com"),
            ("https://192.168.0.7/admin", "192.168.0.7"),
            ("https://localhost/", "localhost"),
            ("https://acme.unknowntld", "acme.unknowntld"),
            ("https://a.b.acme.unknowntld", "acme.unknowntld"),
        ],
    )
    def test_cases(self, url, expected):
        assert extract_domain(url) == expected

    @pytest.mark.parametrize(
        "url",
        ["", "   ", "https://", "http://..", "not a url at all \t", "http://[2001:db8::1/a", "http://[acme.com]/"],
    )
    def test_rejects(self, url):
        with pytest.raises(InputError):
            extract_domain(url)

    def test_custom_suffixes(self, monkeypatch):
        # The snapshot decides: a tail it lists is one suffix.
        assert extract_domain("https://x.acme.custom") == "acme.custom"
        monkeypatch.setattr(augment, "load_public_suffixes", lambda: frozenset({"acme.custom"}))
        assert extract_domain("https://x.acme.custom") == "x.acme.custom"

    def test_suffix_snapshot_loads(self):
        suffixes = load_public_suffixes()
        assert "co.uk" in suffixes and "com.au" in suffixes


class TestBlocklist:
    def test_top_k_by_count_then_name(self):
        results = (
            [result(f"A{i}", first_url="https://dir.example/x") for i in range(3)]
            + [result(f"B{i}", first_url="https://bbb.example/y") for i in range(2)]
            + [result(f"C{i}", first_url="https://aaa.example/z") for i in range(2)]
            + [result("D", first_url="https://rare.example/")]
        )
        assert build_frequent_domain_blocklist(registrable_domains(results), 2) == {"dir.example", "aaa.example"}

    def test_zero_k(self):
        assert build_frequent_domain_blocklist(registrable_domains([result(first_url="https://a.com/")]), 0) == set()

    def test_skips_missing_and_malformed(self):
        results = [result("A"), result("B", first_url="https://.."), result("C", first_url="https://ok.com/")]
        assert build_frequent_domain_blocklist(registrable_domains(results), 5) == {"ok.com"}

    def test_domains_skip_missing_and_malformed(self):
        results = [None, result("A"), result("B", first_url="https://.."), result("C", first_url="https://ok.com/")]
        assert registrable_domains(results) == [None, None, None, "ok.com"]


class TestDomainInfo:
    COMMON = frozenset({"systems", "global"})

    def test_url_text_drops_common_words(self):
        tokens = preprocess_url_text("Acme Global Systems builds turbines", self.COMMON)
        assert tokens == frozenset({"acme", "builds", "turbines"})

    def test_none_text(self):
        assert preprocess_url_text(None, self.COMMON) == frozenset()

    def columns(self, results, blocklist=frozenset()):
        """The two columns as plain lists, after checking the code dtype."""
        domain, url_tokens = build_domain_info(results, registrable_domains(results), blocklist, self.COMMON)
        assert domain.dtype == np.int64
        return domain.tolist(), url_tokens

    def test_build_with_everything(self):
        r = result(first_url="https://www.acme.com/", first_text="Acme builds turbines")
        assert self.columns([r]) == ([0], [frozenset({"acme", "builds", "turbines"})])

    def test_blocklisted_domain_dropped(self):
        r = result(first_url="https://dir.example/co")
        assert self.columns([r], {"dir.example"})[0] == [-1]

    def test_no_result(self):
        assert self.columns([None]) == ([-1], [frozenset()])

    def test_codes_numbered_by_first_appearance(self):
        urls = [
            "https://b.com/", "https://a.com/x", "https://www.b.com/y", "https://dir.example/", None, "https://a.com/"
        ]
        results = [result(f"N{i}", first_url=url) for i, url in enumerate(urls)]
        assert self.columns(results, {"dir.example"})[0] == [0, 1, 0, -1, -1, 1]

    def test_same_text_shares_one_token_set(self):
        results = [result(n, first_url=f"https://{n}.com/", first_text="Acme builds turbines") for n in "ab"]
        domain, url_tokens = self.columns(results)
        assert domain == [0, 1]
        assert url_tokens[0] is url_tokens[1]


class _FakeResponse:
    def __init__(self, status_code, text=""):
        self.status_code = status_code
        self.text = text


class _FakeSession:
    """Scripted responses; records request order and params."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append((url, dict(params or {})))
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


class _FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def make_provider(script, **kwargs):
    clock = _FakeClock()
    session = _FakeSession(script)
    defaults = dict(
        PROVIDER,
        endpoint="https://search.example/s",
        rate_limit_per_s=10.0,
        retries=2,
        backoff_s=0.5,
        session=session,
        sleep=clock.sleep,
        clock=clock,
    )
    defaults.update(kwargs)
    provider = HtmlSearchProvider(**defaults)
    return provider, session, clock


class TestHtmlSearchProvider:
    def test_requires_endpoint(self):
        with pytest.raises(ConfigError):
            HtmlSearchProvider(**PROVIDER)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"retries": -1}, "retries must be >= 0"),
            ({"timeout_s": 0.0}, "timeout_s must be > 0"),
            ({"timeout_s": -1.0}, "timeout_s must be > 0"),
        ],
    )
    def test_rejects_negative_retries_and_nonpositive_timeout(self, kwargs, message):
        # Either would fail every fetch: -1 retries makes no attempt at all,
        # and requests raises ValueError on a zero timeout. The config checks
        # the provider settings as it loads.
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.load(None, environ={}, overrides={"augment": {"provider": kwargs}})

    def test_zero_retries_makes_one_attempt(self):
        provider, session, _ = make_provider([_FakeResponse(200, "ok")], retries=0)
        assert provider.search_page("nokia") == "ok"
        assert len(session.calls) == 1

    def test_search_sends_query_param(self):
        provider, session, _ = make_provider([_FakeResponse(200, "<html/>")])
        provider.search_page("nokia oyj")
        url, params = session.calls[0]
        assert url == "https://search.example/s"
        assert params == {"q": "nokia oyj"}

    def test_retry_on_503_then_success(self):
        provider, session, clock = make_provider(
            [_FakeResponse(503), _FakeResponse(503), _FakeResponse(200, "ok")]
        )
        assert provider.fetch_url("https://x.example/") == "ok"
        # Exponential backoff: 0.5 then 1.0 (throttle waits may interleave).
        assert [s for s in clock.sleeps if s in (0.5, 1.0)] == [0.5, 1.0]

    def test_gives_up_after_retries(self):
        provider, _, _ = make_provider([_FakeResponse(503)] * 3)
        with pytest.raises(ProviderError, match="giving up"):
            provider.fetch_url("https://x.example/")

    def test_non_retryable_fails_fast(self):
        provider, session, _ = make_provider([_FakeResponse(404)])
        with pytest.raises(ProviderError, match="404"):
            provider.fetch_url("https://x.example/")
        assert len(session.calls) == 1

    def test_connection_error_retried(self):
        import requests

        provider, _, _ = make_provider(
            [requests.ConnectionError("boom"), _FakeResponse(200, "ok")]
        )
        assert provider.fetch_url("https://x.example/") == "ok"

    def test_throttle_spaces_requests(self):
        provider, _, clock = make_provider(
            [_FakeResponse(200, "a"), _FakeResponse(200, "b")], rate_limit_per_s=2.0
        )
        provider.fetch_url("https://x.example/")
        provider.fetch_url("https://x.example/")
        # Second request to the same host must wait out the 0.5 s interval.
        assert math.isclose(sum(clock.sleeps), 0.5)

    def test_throttle_is_per_host(self):
        provider, _, clock = make_provider(
            [_FakeResponse(200, "a"), _FakeResponse(200, "b")], rate_limit_per_s=2.0
        )
        provider.fetch_url("https://x.example/")
        provider.fetch_url("https://y.example/")
        assert sum(clock.sleeps) == 0.0


class TestFetchAugmentation:
    def _provider(self, script, **kwargs):
        return make_provider(script, **kwargs)

    def test_cache_hit_short_circuits(self, fresh_cache):
        fresh_cache.put(result("ACME", first_url="https://acme.com/"))
        provider, session, _ = self._provider([])
        out = fetch_augmentation("ACME", provider, fresh_cache, refresh=False)
        assert out.first_url == "https://acme.com/"
        assert session.calls == []

    def test_full_flow_and_caching(self, fresh_cache):
        provider, session, _ = self._provider(
            [_FakeResponse(200, SEARCH_PAGE), _FakeResponse(200, LANDING_PAGE)]
        )
        out = fetch_augmentation("VELTRONA CORPORATOIN", provider, fresh_cache, now=lambda: 5.0, refresh=False)
        assert out.corrected_name == "veltrona corporation"
        assert out.first_url == "https://www.veltrona.com/"
        assert "wireless network infrastructure" in out.first_text
        assert out.fetched_at == 5.0
        assert fresh_cache.get("VELTRONA CORPORATOIN") == out
        # Second call must not touch the provider again.
        fetch_augmentation("VELTRONA CORPORATOIN", provider, fresh_cache, refresh=False)
        assert len(session.calls) == 2

    def test_relative_first_url_resolved(self, fresh_cache):
        page = '<a class="result-link" href="/companies/acme">Acme</a>'
        provider, _, _ = self._provider([_FakeResponse(200, page), _FakeResponse(200, "<p>Acme</p>")])
        out = fetch_augmentation("ACME", provider, fresh_cache, refresh=False)
        assert out.first_url == "https://search.example/companies/acme"

    def test_landing_failure_keeps_url(self, fresh_cache):
        provider, _, _ = self._provider([_FakeResponse(200, SEARCH_PAGE), _FakeResponse(404)])
        out = fetch_augmentation("ACME", provider, fresh_cache, refresh=False)
        assert out.first_url == "https://www.veltrona.com/"
        assert out.first_text is None

    def test_refresh_bypasses_cache(self, fresh_cache):
        fresh_cache.put(result("ACME"))
        provider, session, _ = self._provider(
            [_FakeResponse(200, SEARCH_PAGE), _FakeResponse(200, LANDING_PAGE)]
        )
        out = fetch_augmentation("ACME", provider, fresh_cache, refresh=True)
        assert out.first_url == "https://www.veltrona.com/"
        assert len(session.calls) == 2
