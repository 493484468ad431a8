"""The pinned configs write the artifact bytes recorded in tools/pinned_bytes.txt.

The recorded file changes only together with a `schema_version` bump.
"""

import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


def test_pinned_artifacts_are_byte_identical():
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "pinned_bytes.py")],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(os.path.join(TOOLS, "pinned_bytes.txt"), encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    assert proc.stdout.splitlines() == expected
