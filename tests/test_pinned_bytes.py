"""The pinned configs write the artifact bytes recorded in tools/pinned_bytes.txt.

The recorded file changes only together with a `schema_version` bump.
"""

import os
import subprocess
import sys

import pytest

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
