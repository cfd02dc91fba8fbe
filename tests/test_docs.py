"""README stays in step with the code: its configuration block loads, every
flag its CLI synopsis shows is accepted, and every code name it shows
exists."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from harmonizer.cli import build_parser
from harmonizer.config import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def fenced_block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def synopsis_lines() -> list[str]:
    return [line for line in fenced_block("CLI", "sh").splitlines() if line.startswith("harmonizer ")]


def test_config_block_loads(tmp_path):
    path = tmp_path / "readme.yaml"
    path.write_text(fenced_block("Configuration", "yaml"), encoding="utf-8")
    config = PipelineConfig.load(path, environ={})
    assert config["graph"]["threshold"] == 3.9


def test_synopsis_lists_every_subcommand():
    assert {line.split()[1] for line in synopsis_lines()} == {"augment", "run", "evaluate", "tune", "summarize"}


@pytest.mark.parametrize("line", synopsis_lines(), ids=lambda line: line.split()[1])
def test_synopsis_flags_parse(line):
    # Every placeholder becomes "1", which each typed flag accepts too; an
    # unknown flag makes argparse exit.
    argv = [line.split()[1]]
    for token in line.replace("[", " ").replace("]", " ").split()[2:]:
        argv.append(token if token.startswith("--") else "1")
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def readme_code_names() -> set[str]:
    """Backticked README spans that name code, alone or called: snake_case
    with an inner underscore, or CamelCase."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    calls = (re.sub(r"\(.*\)$", "", span) for span in spans)
    return {name for name in calls if re.fullmatch(r"[a-z][a-z0-9]*(?:_[a-z0-9]+)+|(?:[A-Z][a-z0-9]+)+", name)}


def test_readme_names_exist():
    sources = [path for part in ("src/harmonizer", "tests", "scripts") for path in (ROOT / part).rglob("*.py")]
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    names = readme_code_names()
    missing = sorted(name for name in names if not re.search(rf"\b{name}\b", text))
    assert len(names) > 20 and not missing, missing
