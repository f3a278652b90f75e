"""Each Python block of README.md runs against the source tree and prints
what its comments say it prints."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _python_blocks() -> list[tuple[str, str]]:
    """(section heading, code) for every ```python block of README.md."""
    heading, blocks = "", []
    text = (ROOT / "README.md").read_text()
    for m in re.finditer(r"^## ([^\n]+)$|^```python\n(.*?)^```$", text, re.M | re.S):
        if m[1]:
            heading = m[1]
        else:
            blocks.append((heading, m[2]))
    return blocks


def _claimed_output(code: str) -> list[str] | None:
    """The comment on each ``print`` line of ``code``, or None unless every
    print has one.  A comment claims the printed line itself or ends in
    ``: <printed line>``."""
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    comments = [re.search(r"#\s*(.*)$", line) for line in prints]
    return [c[1] for c in comments] if prints and all(comments) else None


BLOCKS = _python_blocks()


def test_quickstart_output_is_checked():
    assert len(_claimed_output(dict(BLOCKS)["Quickstart"])) == 4


@pytest.mark.parametrize("heading, code", BLOCKS, ids=[h for h, _ in BLOCKS])
def test_readme_block(heading, code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    claims = _claimed_output(code)
    if claims is not None:
        lines = done.stdout.splitlines()
        assert len(lines) == len(claims), done.stdout
        for line, claim in zip(lines, claims):
            assert claim == line or claim.endswith(": " + line), (line, claim)
