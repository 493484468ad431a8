"""The pinned configs write the artifact bytes recorded in tools/pinned_bytes.txt.

The recorded file changes only together with a `schema_version` bump.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from heislab.cli import SCHEMA_VERSION

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


def _digests(lines):
    """`sha256  config/file` lines as {config/file: sha256}."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def _difference(got, expected) -> str:
    """The artifacts that changed, appeared or vanished, sorted."""
    got, expected = _digests(got), _digests(expected)
    parts = []
    for label, names in (
        ("changed", [k for k in got.keys() & expected.keys() if got[k] != expected[k]]),
        ("appeared", got.keys() - expected.keys()),
        ("vanished", expected.keys() - got.keys()),
    ):
        if names:
            parts.append(f"{label}: {', '.join(sorted(names))}")
    return "; ".join(parts)


def test_pinned_artifacts_are_byte_identical():
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "pinned_bytes.py")],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(os.path.join(TOOLS, "pinned_bytes.txt"), encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    got = proc.stdout.splitlines()
    if got != expected:
        pytest.fail(_difference(got, expected), pytrace=False)


def _tool():
    spec = importlib.util.spec_from_file_location("pinned_bytes", os.path.join(TOOLS, "pinned_bytes.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(tool, monkeypatch, *args):
    """Runs the tool's main with command-line `args`."""
    monkeypatch.setattr(sys, "argv", ["pinned_bytes.py", *args])
    assert tool.main() == 0


@pytest.fixture()
def tool(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "PINNED", {k: tool.PINNED[k] for k in ("levy-cf-null", "lsi-scan-verdicts")})
    return tool


def test_against_finds_no_change_between_two_copies(tool, monkeypatch, capsys, tmp_path):
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    _main(tool, monkeypatch, "--keep", old)
    digests = capsys.readouterr().out.splitlines()
    _main(tool, monkeypatch, "--keep", new, "--against", old)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:len(digests)] == digests
    count, changes, largest, versions = tool.compare_reports(new, old)
    assert count > 100 and changes == [] and largest == 0.0
    assert versions == {f"{SCHEMA_VERSION} -> {SCHEMA_VERSION}"}
    assert lines[len(digests):] == [
        f"against {old}: schema_version {SCHEMA_VERSION} -> {SCHEMA_VERSION}; "
        f"{count} numbers compared, 0 other values changed, largest relative change 0"
    ]


def test_against_names_each_changed_verdict_and_the_largest_move(tool, monkeypatch, tmp_path):
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    _main(tool, monkeypatch, "--keep", old)
    _main(tool, monkeypatch, "--keep", new)
    path = os.path.join(new, "lsi-scan-verdicts", "report.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cell = doc["results"]["cells"][0]
    cell["passed"] = not cell["passed"]
    cell["energy"] *= 1.0 + 1e-9
    doc["schema_version"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    count, changes, largest, versions = tool.compare_reports(new, old)
    assert changes == [f"lsi-scan-verdicts/report.json $.results.cells[0].passed: "
                       f"{json.dumps(not cell['passed'])} -> {json.dumps(cell['passed'])}"]
    assert 0.9e-9 < largest < 1.1e-9
    assert versions == {f"{SCHEMA_VERSION} -> {SCHEMA_VERSION}",
                        f"{SCHEMA_VERSION} -> {SCHEMA_VERSION + 1}"}
