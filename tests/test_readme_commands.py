"""Every README command, text and --json, exits and prints exactly as pinned.

The argvs and their pinned exit codes and stdout hashes are the "cli" section of
bench/pinned.json, which the benchmark checks too; this test only reads it.
Each command runs through cli.main from the repository root, where its
fixture paths resolve.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import tilekit.cli as cli

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "bench" / "pinned.json").read_text())["cli"]


def test_every_readme_command_is_pinned():
    assert len(PINNED) == 26


@pytest.mark.parametrize("command", sorted(PINNED))
def test_readme_command_prints_pinned_bytes(command, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    assert code == PINNED[command]["exit"], err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        PINNED[command]["stdout_sha256"]
