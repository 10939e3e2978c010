"""Byte-for-byte CLI reports against committed golden files.

`tests/golden/<name>.cfg` holds the input and `<name>.<command>.json`
(and `.csv` for verify-basis) the expected report.  A rewrite of an exact
kernel must leave every byte of these reports unchanged.  Regenerate them
only for an intended change of report content:

    python -m gradedhecke.cli <command> --config tests/golden/<name>.cfg --out DIR
"""

from pathlib import Path

import pytest

from gradedhecke.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, command, suffixes", [
    ("b2", "verify-basis", (".json", ".csv")),
    ("a1xa1-swap", "verify-basis", (".json", ".csv")),
    ("a1-complex", "induce", (".json",)),
    ("a1xa1-swap", "crossed-census", (".json",)),
    ("b2", "molien", (".json",)),
    ("g2", "irr0", (".json",)),
    ("a2-ps0", "induce", (".json",)),
    ("hh-a2", "hh-findim", (".json",)),
    ("m2", "hc-findim", (".json",)),
    ("d4", "group", (".json",)),
    ("d4-triality", "group", (".json",)),
    ("b2-complex", "induce", (".json",)),
    ("a3", "verify-basis", (".json", ".csv")),
    ("b3", "verify-basis", (".json", ".csv")),
    ("hc-a2", "hc-findim", (".json",)),
    ("a4", "crossed-census", (".json",)),
    ("g2", "datum", (".json",)),
])
def test_cli_reproduces_golden_report(tmp_path, name, command, suffixes):
    assert main([command, "--config", str(GOLDEN / f"{name}.cfg"),
                 "--out", str(tmp_path)]) == 0
    for suffix in suffixes:
        expected = (GOLDEN / f"{name}.{command}{suffix}").read_bytes()
        assert (tmp_path / f"{command}{suffix}").read_bytes() == expected
