"""Tests for the command-line front end: subcommands, exit codes, output."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harmonizer
from harmonizer import __version__
from harmonizer.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, EXIT_STAGE, main
from harmonizer.errors import StageError
from harmonizer.ingest import write_tsv
from harmonizer.pipeline import MAPPING_HEADER, read_mapping


def cli(*argv):
    return main(list(argv))


@pytest.fixture()
def no_provider(monkeypatch):
    """Building a search provider fails the test."""
    from harmonizer.augment import HtmlSearchProvider

    def built(*args, **kwargs):
        raise AssertionError("a search provider was built")

    monkeypatch.setattr(HtmlSearchProvider, "__init__", built)


def test_import_leaves_networkx_unloaded():
    # networkx is a test-only dependency: the CLI must not import it.
    env = dict(os.environ, PYTHONPATH=str(Path(harmonizer.__file__).resolve().parent.parent))
    code = "import sys, harmonizer.cli; print('networkx' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli("--version")
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli()
        assert excinfo.value.code == 2

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli("transmogrify")
        assert excinfo.value.code == 2


class TestRunCommand:
    def run_args(self, paths, out_dir, *extra):
        return [
            "run",
            "--config", str(paths["config"]),
            "--input", str(paths["input"]),
            "--cache", str(paths["cache"]),
            "--out", str(out_dir),
            *extra,
        ]

    def test_full_run(self, corpus60_paths, tmp_path, capsys):
        rc = cli(*self.run_args(corpus60_paths, tmp_path))
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "run: 60 records -> 12 communities" in out
        for name in ("cleaned.tsv", "pairs.tsv", "mapping.tsv", "summary.json", "manifest.json"):
            assert (tmp_path / name).exists(), name
        assert not (tmp_path / "eval.json").exists()

    def test_run_with_gold_writes_eval(self, corpus60_paths, tmp_path, capsys):
        rc = cli(*self.run_args(corpus60_paths, tmp_path, "--gold", str(corpus60_paths["gold"])))
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["f1"] == 1.0

    @pytest.mark.parametrize("rows", ["", "nobody\te1\nnoone\te1\n"], ids=["header only", "unknown ids"])
    def test_gold_sharing_no_record_exits_3_before_any_stage(self, corpus60_paths, tmp_path, capsys, monkeypatch, rows):
        import harmonizer.pipeline as pipeline

        def prepare_corpus(*args, **kwargs):
            raise AssertionError("prepare_corpus ran")

        monkeypatch.setattr(pipeline, "prepare_corpus", prepare_corpus)
        gold = tmp_path / "gold.tsv"
        gold.write_text("record_id\tentity_id\n" + rows)
        out = tmp_path / "out"
        rc = cli(*self.run_args(corpus60_paths, out, "--gold", str(gold)))
        assert rc == EXIT_INPUT
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_lands_in_manifest(self, corpus60_paths, tmp_path, capsys):
        rc = cli(*self.run_args(corpus60_paths, tmp_path, "--seed", "5"))
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_global_flags_before_subcommand(self, corpus60_paths, tmp_path, capsys):
        # The subparsers must not clobber flags the root parser already read.
        rc = cli("--seed", "5", *self.run_args(corpus60_paths, tmp_path))
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_env_override_applies(self, corpus60_paths, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HARMONIZER_GRAPH_THRESHOLD", "99.0")
        rc = cli(*self.run_args(corpus60_paths, tmp_path))
        assert rc == EXIT_OK
        assert "60 records -> 60 communities" in capsys.readouterr().out

    def test_unknown_config_key_exits_2(self, corpus60_paths, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("graph:\n  treshold: 1.0\n")
        args = self.run_args(corpus60_paths, tmp_path / "out")
        args[2] = str(bad)
        rc = cli(*args)
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_removed_config_key_exits_2(self, corpus60_paths, tmp_path, capsys):
        old = tmp_path / "old.yaml"
        old.write_text("graph:\n  naming: volume\n")
        args = self.run_args(corpus60_paths, tmp_path / "out")
        args[2] = str(old)
        assert cli(*args) == EXIT_CONFIG
        assert "unknown config key 'graph.naming'" in capsys.readouterr().err

    def test_name_that_normalizes_to_nothing_is_a_degenerate_singleton(self, corpus60_paths, corpus60_run, tmp_path):
        # Names with no letter or digit have no tokens: each is a degenerate
        # singleton named by its raw name, and the other rows do not move.
        table, gold = tmp_path / "input.tsv", tmp_path / "gold.tsv"
        table.write_text(corpus60_paths["input"].read_text() + "r061\t---\t1\t\nr062\t!!!\t1\t\n")
        gold.write_text(corpus60_paths["gold"].read_text() + "r061\tE90\nr062\tE91\n")
        out = tmp_path / "out"
        args = self.run_args(corpus60_paths, out, "--gold", str(gold))
        args[4] = str(table)
        assert cli(*args) == EXIT_OK
        mapping = (out / "mapping.tsv").read_text().splitlines()
        assert mapping[:61] == corpus60_run["mapping_bytes"].decode().splitlines()
        assert [row.split("\t")[1::2] for row in mapping[61:]] == [["---", "---"], ["!!!", "!!!"]]
        communities = [row.split("\t")[2] for row in mapping[1:]]
        assert communities.count(mapping[61].split("\t")[2]) == communities.count(mapping[62].split("\t")[2]) == 1
        cleaned = (out / "cleaned.tsv").read_text().splitlines()
        assert cleaned[61:] == ["r061\t\ttype2\t1", "r062\t\ttype2\t1"]
        assert json.loads((out / "manifest.json").read_text())["stage_counts"]["degenerate"] == 2
        assert json.loads((out / "eval.json").read_text())["f1"] == 1.0

    @pytest.mark.parametrize("out", ["FILE/out", "FILE"])
    def test_output_that_cannot_be_written_exits_3(self, corpus60_paths, tmp_path, capsys, out):
        (tmp_path / "FILE").write_text("")
        out = tmp_path / out
        assert cli(*self.run_args(corpus60_paths, out)) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: cannot write {out}: ")
        assert (tmp_path / "FILE").read_text() == "" and not list(tmp_path.glob(".*"))

    def test_missing_input_exits_3(self, corpus60_paths, tmp_path, capsys):
        args = self.run_args(corpus60_paths, tmp_path)
        args[4] = str(tmp_path / "nope.tsv")
        rc = cli(*args)
        assert rc == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_cache_line_of_another_shape_exits_3(self, corpus60_paths, tmp_path, capsys):
        lines = corpus60_paths["cache"].read_text(encoding="utf-8").splitlines(keepends=True)
        cache = tmp_path / "cache.jsonl"
        cache.write_text("".join(lines[:3]) + "5\n" + "".join(lines[3:]), encoding="utf-8")
        rc = cli(*self.run_args(dict(corpus60_paths, cache=cache), tmp_path / "out"))
        assert rc == EXIT_INPUT
        assert "line 4: bad cache line: not a JSON object" in capsys.readouterr().err

    def test_stage_failure_exits_4(self, corpus60_paths, tmp_path, capsys, monkeypatch):
        import harmonizer.cli as cli_mod

        def boom(*args, **kwargs):
            raise StageError("match", "scorer exploded")

        monkeypatch.setattr(cli_mod, "run_pipeline", boom)
        rc = cli(*self.run_args(corpus60_paths, tmp_path))
        assert rc == EXIT_STAGE
        assert "stage 'match' failed" in capsys.readouterr().err

    def test_run_with_an_endpoint_reads_the_cache_only(self, corpus60_paths, tmp_path, capsys, monkeypatch, no_provider):
        # Only augment fetches: with an endpoint set and half the names
        # missing from the cache, a run builds no provider, leaves the cache
        # as it was and writes what a run without an endpoint writes.
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(b"".join(corpus60_paths["cache"].read_bytes().splitlines(keepends=True)[::2]))
        before = cache.read_bytes()
        paths = dict(corpus60_paths, cache=cache)
        assert cli(*self.run_args(paths, tmp_path / "plain")) == EXIT_OK
        monkeypatch.setenv("HARMONIZER_AUGMENT_PROVIDER_ENDPOINT", "https://search.example/s")
        assert cli(*self.run_args(paths, tmp_path / "endpoint")) == EXIT_OK
        assert cache.read_bytes() == before
        for name in ("cleaned.tsv", "pairs.tsv", "mapping.tsv", "summary.json"):
            assert (tmp_path / "endpoint" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name
        counts = json.loads((tmp_path / "endpoint" / "manifest.json").read_text())["stage_counts"]
        assert (counts["records"], counts["augmented"]) == (60, 30)

    @pytest.mark.parametrize("command, flag", [("run", ["--offline"]), ("tune", ["--threads", "2"])])
    def test_network_flags_belong_to_augment(self, corpus60_paths, tmp_path, capsys, command, flag):
        args = [command, "--input", str(corpus60_paths["input"]), "--cache", str(corpus60_paths["cache"])]
        args += ["--out", str(tmp_path / "out")] if command == "run" else ["--gold", str(corpus60_paths["gold"])]
        with pytest.raises(SystemExit) as excinfo:
            cli(*args, *flag)
        assert excinfo.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_brute_force_flag(self, corpus60_paths, tmp_path, capsys):
        # Blocking is the only candidate path; the flag is gone.
        with pytest.raises(SystemExit) as excinfo:
            cli(*self.run_args(corpus60_paths, tmp_path / "out", "--brute-force"))
        assert excinfo.value.code == 2
        assert "--brute-force" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEvaluateCommand:
    def test_prints_report_json(self, corpus60_run, corpus60_paths, capsys):
        rc = cli(
            "evaluate",
            "--pred", str(corpus60_run["dir"] / "mapping.tsv"),
            "--gold", str(corpus60_paths["gold"]),
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["f1"] == 1.0
        assert report["reduction"]["n_before"] == 60

    def test_out_flag_writes_file(self, corpus60_run, corpus60_paths, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc = cli(
            "evaluate",
            "--pred", str(corpus60_run["dir"] / "mapping.tsv"),
            "--gold", str(corpus60_paths["gold"]),
            "--out", str(target),
        )
        assert rc == EXIT_OK
        assert json.loads(target.read_text())["f1"] == 1.0
        assert "f1=1.0000" in capsys.readouterr().out

    def test_ids_past_int64_score_as_the_originals(self, corpus60_run, corpus60_paths, tmp_path, capsys):
        # Every community id times 2**63: all but 0 lie past int64.
        mapping = corpus60_run["dir"] / "mapping.tsv"
        scaled = tmp_path / "scaled.tsv"
        rows = [list(row.values()) for row in read_mapping(mapping)]
        write_tsv(scaled, MAPPING_HEADER, [(rid, name, str(cid * 2**63), canonical) for rid, name, cid, canonical in rows])
        reports = []
        for pred in (mapping, scaled):
            out = tmp_path / f"{pred.stem}.json"
            assert cli("evaluate", "--pred", str(pred), "--gold", str(corpus60_paths["gold"]), "--out", str(out)) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("out, code", [("nodir/r.json", EXIT_OK), ("FILE/r.json", EXIT_INPUT), ("DIR", EXIT_INPUT)])
    def test_out_makes_its_directory_or_exits_3(self, corpus60_run, corpus60_paths, tmp_path, capsys, out, code):
        (tmp_path / "FILE").write_text("")
        (tmp_path / "DIR").mkdir()
        out = tmp_path / out
        args = ["--pred", str(corpus60_run["dir"] / "mapping.tsv"), "--gold", str(corpus60_paths["gold"])]
        assert cli("evaluate", *args, "--out", str(out)) == code
        if code == EXIT_OK:
            assert json.loads(out.read_text())["f1"] == 1.0
        else:
            assert capsys.readouterr().err.startswith(f"input error: cannot write {out}: ")

    def test_missing_mapping_exits_3(self, corpus60_paths, tmp_path, capsys):
        rc = cli(
            "evaluate",
            "--pred", str(tmp_path / "nope.tsv"),
            "--gold", str(corpus60_paths["gold"]),
        )
        assert rc == EXIT_INPUT


@pytest.mark.parametrize("command", ["run", "tune"])
@pytest.mark.parametrize("key", ["augment.blocklist_k", "parse.common_words_n"])
def test_negative_count_exits_2_before_the_input_is_read(tmp_path, capsys, command, key):
    section, name = key.split(".")
    config = tmp_path / "bad.yaml"
    config.write_text(f"{section}:\n  {name}: -1\n")
    missing = str(tmp_path / "missing.tsv")
    args = [command, "--config", str(config), "--input", missing, "--cache", missing]
    args += ["--out", str(tmp_path / "out")] if command == "run" else ["--gold", missing]
    assert cli(*args) == EXIT_CONFIG
    assert f"config error: {key} must be >= 0, got -1" in capsys.readouterr().err


# One value out of range per bounded kind, and the flag that can set it.
OUT_OF_RANGE = [
    ("match.weights.token", "-1", None),
    ("match.weights.cos", "-0.5", None),
    ("graph.resolution", "0", None),
    ("graph.location_boost", "-1", None),
    ("graph.threshold", ".nan", None),
    ("tune.n_startup", "-1", None),
    ("tune.trials", "0", "--trials"),
    ("run.threads", "0", "--threads"),
    ("augment.provider.retries", "-1", None),
    ("augment.provider.timeout_s", "0", None),
    ("augment.provider.rate_limit_per_s", "0", None),
]


@pytest.mark.parametrize("key, value, flag", OUT_OF_RANGE, ids=[key for key, _, _ in OUT_OF_RANGE])
def test_out_of_range_setting_exits_2_in_every_command(tmp_path, capsys, monkeypatch, key, value, flag):
    # Set by YAML, by HARMONIZER_* or by a flag, the value fails as the config
    # loads: before the missing input is read, and before augment's provider
    # is built (the endpoint is set, so it would be).
    from test_config import nested_yaml

    monkeypatch.setenv("HARMONIZER_AUGMENT_PROVIDER_ENDPOINT", "http://127.0.0.1:9/s")
    config = tmp_path / "bad.yaml"
    config.write_text(nested_yaml(key, value))
    env = f"HARMONIZER_{key.replace('.', '_').upper()}"
    missing = str(tmp_path / "missing.tsv")
    commands = {
        "run": ["run", "--input", missing, "--cache", missing, "--out", str(tmp_path / "out")],
        "tune": ["tune", "--input", missing, "--cache", missing, "--gold", missing],
        "augment": ["augment", "--input", missing, "--cache", str(tmp_path / "cache.jsonl")],
    }
    for command, args in commands.items():
        layers = {"yaml": (["--config", str(config)], {}), "env": ([], {env: value})}
        if flag and flag == {"tune": "--trials", "augment": "--threads"}.get(command):
            layers["flag"] = ([flag, value], {})
        for layer, (extra, environ) in layers.items():
            with monkeypatch.context() as patch:
                for name, text in environ.items():
                    patch.setenv(name, text)
                assert cli(*args, *extra) == EXIT_CONFIG, (command, layer)
            assert capsys.readouterr().err.startswith(f"config error: {key} must be"), (command, layer)
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache.jsonl").exists()


def test_unusable_selector_exits_2_before_the_input_is_read(tmp_path, capsys):
    config = tmp_path / "selector.yaml"
    config.write_text('augment:\n  provider:\n    result_selector: "div > a"\n')
    missing = str(tmp_path / "missing.tsv")
    assert cli("run", "--config", str(config), "--input", missing, "--cache", missing, "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert "config error: augment.provider.result_selector 'div > a' is unsupported" in capsys.readouterr().err


def test_missing_designators_file_exits_2(corpus60_paths, tmp_path, capsys, monkeypatch):
    missing = tmp_path / "designators.txt"
    monkeypatch.setenv("HARMONIZER_PARSE_DESIGNATORS", str(missing))
    args = ["--input", str(corpus60_paths["input"]), "--cache", str(corpus60_paths["cache"])]
    assert cli("run", *args, "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: parse.designators: file not found: {missing}\n"


# Every file each command reads, by the flag or config key that names it.
# ``parse.designators`` is set through the environment, on top of --config.
FILE_INPUTS = {
    "augment": ("--input", "--cache", "--config", "parse.designators"),
    "run": ("--input", "--cache", "--gold", "--config", "parse.designators"),
    "evaluate": ("--pred", "--gold", "--config", "parse.designators"),
    "tune": ("--input", "--gold", "--cache", "--config", "parse.designators"),
    "summarize": ("--mapping", "--input", "--config", "parse.designators"),
}
# Files the config names are configuration; every other file is data.
CONFIG_FILES = {"--config", "parse.designators"}


@pytest.mark.parametrize(
    "command, source, case",
    [
        (command, source, case)
        for command, sources in FILE_INPUTS.items()
        for source in sources
        for case in ("missing", "directory", "not_utf8")
        # A missing cache is an empty one.
        if (source, case) != ("--cache", "missing")
    ],
)
def test_unreadable_file_exits_2_or_3_in_every_command(
    corpus60_paths, tmp_path, capsys, monkeypatch, command, source, case
):
    """A file that is missing, a directory or not UTF-8 ends a command with
    one error line and exit 2 (files the config names) or 3 (data files),
    never a traceback; only a missing file is reported as not found."""
    mapping = tmp_path / "mapping.tsv"
    write_tsv(mapping, MAPPING_HEADER, [("r001", "OSTRELLA, INC.", "0", "OSTRELLA"), ("r002", "GANDARA, INC.", "1", "GANDARA")])
    paths = {
        "--input": corpus60_paths["input"],
        "--cache": corpus60_paths["cache"],
        "--gold": corpus60_paths["gold"],
        "--config": corpus60_paths["config"],
        "--pred": mapping,
        "--mapping": mapping,
    }
    bad = tmp_path / "bad"
    if case == "directory":
        bad.mkdir()
    elif case == "not_utf8":
        bad.write_bytes(b"\xff\xfe\n")
    if source == "parse.designators":
        monkeypatch.setenv("HARMONIZER_PARSE_DESIGNATORS", str(bad))
    else:
        paths[source] = bad
    extra = {"augment": ["--offline"], "run": ["--out", str(tmp_path / "out")]}.get(command, [])
    args = [arg for flag in FILE_INPUTS[command] if flag in paths for arg in (flag, str(paths[flag]))]
    code = cli(command, *args, *extra)
    err = capsys.readouterr().err
    expected = (EXIT_CONFIG, "config error: ") if source in CONFIG_FILES else (EXIT_INPUT, "input error: ")
    assert (code, err[: len(expected[1])]) == expected, err
    assert err.count("\n") == 1 and str(bad) in err and "Traceback" not in err
    assert ("not found" in err) == (case == "missing"), err


def duplicated_mapping(tmp_path):
    """A mapping that lists r1 twice, on lines 2 and 3."""
    path = tmp_path / "mapping.tsv"
    path.write_text(
        "record_id\traw_name\tcommunity_id\tcanonical_name\n"
        "r1\tACME\t0\tACME\nr1\tACME\t1\tACME\nr2\tACME INC\t0\tACME\n"
    )
    return path


class TestDuplicateMappingIds:
    def test_evaluate_rejects_repeated_record_id(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("record_id\tentity_id\nr1\tE1\nr2\tE1\n")
        rc = cli("evaluate", "--pred", str(duplicated_mapping(tmp_path)), "--gold", str(gold))
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert "line 3: duplicate record_id 'r1'" in captured.err
        assert captured.out == ""

    def test_summarize_rejects_repeated_record_id(self, tmp_path, capsys):
        rc = cli("summarize", "--mapping", str(duplicated_mapping(tmp_path)))
        assert rc == EXIT_INPUT
        assert "line 3: duplicate record_id 'r1'" in capsys.readouterr().err


class TestSummarizeCommand:
    def test_summary_json(self, corpus60_run, capsys):
        rc = cli("summarize", "--mapping", str(corpus60_run["dir"] / "mapping.tsv"), "--top", "3")
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_records"] == 60
        assert summary["n_communities"] == 12
        assert len(summary["largest_communities"]) == 3

    def test_negative_top_exits_2(self, corpus60_run, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli("summarize", "--mapping", str(corpus60_run["dir"] / "mapping.tsv"), "--top", "-1")
        assert excinfo.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_input_flag_fills_portfolios(self, corpus60_run, corpus60_paths, capsys):
        rc = cli(
            "summarize",
            "--mapping", str(corpus60_run["dir"] / "mapping.tsv"),
            "--input", str(corpus60_paths["input"]),
        )
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert any(c["portfolio"] > 0 for c in summary["largest_communities"])


class TestTuneCommand:
    def test_small_budget(self, corpus60_paths, tmp_path, capsys):
        store = tmp_path / "trials.jsonl"
        rc = cli(
            "tune",
            "--config", str(corpus60_paths["config"]),
            "--input", str(corpus60_paths["input"]),
            "--gold", str(corpus60_paths["gold"]),
            "--cache", str(corpus60_paths["cache"]),
            "--trials", "2",
            "--out", str(store),
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "tune: 2 trials" in out
        assert "best f1=1.0000 at trial 0" in out
        assert store.read_text().count("\n") == 2

    @pytest.mark.parametrize("rows", ["", "nobody\te1\nnoone\te1\n"], ids=["header only", "unknown ids"])
    def test_gold_sharing_no_record_exits_3(self, corpus60_paths, tmp_path, capsys, monkeypatch, rows):
        import harmonizer.pipeline as pipeline

        gold = tmp_path / "gold.tsv"
        gold.write_text("record_id\tentity_id\n" + rows)
        store = tmp_path / "trials.jsonl"
        trials = []
        monkeypatch.setattr(pipeline, "build_tuning_objective", lambda *args: trials.append(args))
        rc = cli(
            "tune",
            "--input", str(corpus60_paths["input"]),
            "--gold", str(gold),
            "--cache", str(corpus60_paths["cache"]),
            "--out", str(store),
        )
        assert rc == EXIT_INPUT
        assert "input error" in capsys.readouterr().err
        assert trials == []
        assert not store.exists()


    @pytest.mark.parametrize("out, code", [("nodir/t.jsonl", EXIT_OK), ("FILE/t.jsonl", EXIT_INPUT), ("DIR", EXIT_INPUT)])
    def test_out_makes_its_directory_or_exits_3_before_reading_input(
        self, corpus60_paths, tmp_path, capsys, out, code
    ):
        # An unwritable store fails before the input, here missing, is read.
        (tmp_path / "FILE").write_text("")
        (tmp_path / "DIR").mkdir()
        store = tmp_path / out
        rc = cli(
            "tune",
            "--config", str(corpus60_paths["config"]),
            "--input", str(corpus60_paths["input"] if code == EXIT_OK else tmp_path / "missing.tsv"),
            "--gold", str(corpus60_paths["gold"]),
            "--cache", str(corpus60_paths["cache"]),
            "--trials", "2",
            "--out", str(store),
        )
        assert rc == code
        if code == EXIT_OK:
            assert store.read_text().count("\n") == 2
        else:
            assert capsys.readouterr().err.startswith(f"input error: cannot write {store}: ")


class TestAugmentCommand:
    def test_offline_cache_inventory(self, corpus60_paths, tmp_path, capsys, monkeypatch, no_provider):
        # --offline builds no provider, even with an endpoint set.
        monkeypatch.setenv("HARMONIZER_AUGMENT_PROVIDER_ENDPOINT", "https://search.example/s")
        cache = tmp_path / "cache.jsonl"
        shutil.copy(corpus60_paths["cache"], cache)
        rc = cli(
            "augment",
            "--input", str(corpus60_paths["input"]),
            "--cache", str(cache),
            "--offline",
        )
        assert rc == EXIT_OK
        assert "augment: 60 names, 60 cached, 0 un-augmented" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("retries: -1", "retries must be >= 0"),
            ("timeout_s: 0", "timeout_s must be > 0"),
            ("rate_limit_per_s: 0", "rate_limit_per_s must be > 0"),
        ],
    )
    def test_unusable_provider_settings_exit_2(self, tmp_path, capsys, setting, message):
        # The provider settings are checked before the input is read.
        config = tmp_path / "provider.yaml"
        config.write_text(f"augment:\n  provider:\n    endpoint: http://127.0.0.1:9/s\n    {setting}\n")
        rc = cli(
            "augment",
            "--config", str(config),
            "--input", str(tmp_path / "missing.tsv"),
            "--cache", str(tmp_path / "cache.jsonl"),
        )
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cache.jsonl").exists()

    def test_live_augment_creates_the_cache_directory(self, corpus60_paths, tmp_path, capsys, monkeypatch):
        from harmonizer import cli as cli_module
        from test_pipeline import _CannedProvider

        monkeypatch.setattr(cli_module, "make_provider", lambda config: _CannedProvider())
        cache = tmp_path / "absent" / "cache.jsonl"
        rc = cli("augment", "--input", str(corpus60_paths["input"]), "--cache", str(cache))
        assert rc == EXIT_OK
        assert "augment: 60 names, 60 cached, 0 un-augmented" in capsys.readouterr().out
        assert len(cache.read_text().splitlines()) == 60

    def test_online_without_endpoint_exits_2(self, corpus60_paths, tmp_path, capsys):
        rc = cli(
            "augment",
            "--input", str(corpus60_paths["input"]),
            "--cache", str(tmp_path / "cache.jsonl"),
        )
        assert rc == EXIT_CONFIG
        assert "provider.endpoint" in capsys.readouterr().err
