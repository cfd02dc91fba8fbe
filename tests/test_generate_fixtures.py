"""``scripts/generate_fixtures.py`` still reads the prepared corpus it checks.

Only ``sanity_parse`` runs here: the script's ``main()`` rewrites the
committed fixtures.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_fixtures.py"


def test_sanity_parse_counts_corpus300(corpus300_paths, capsys):
    spec = importlib.util.spec_from_file_location("generate_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.sanity_parse("corpus300", corpus300_paths["config"])
    assert "corpus300: 6 type-2 names, 364 candidate pairs" in capsys.readouterr().out.splitlines()
