"""Tests of the repository tools."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring."""

# a comment
def f(x):
    """Docstring,
    two lines."""
    return (x +
            1)
'''


def run(cwd, *args):
    return subprocess.run([sys.executable, str(CODE_LINES), *args], cwd=cwd,
                          capture_output=True, text=True)


def git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   cwd=cwd, check=True, capture_output=True)


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    out = run(tmp_path, "a.py")
    assert out.returncode == 0
    assert out.stdout.split() == ["3", "a.py", "3", "total"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_against_counts_each_file_at_the_revision(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "c.py").write_text("w = 1\nv = 2\n")
    git(tmp_path, "add", "a.py", "c.py")
    git(tmp_path, "commit", "-q", "-m", "one")
    (tmp_path / "a.py").write_text(SOURCE + "y = 2\n")
    (tmp_path / "b.py").write_text("z = 3\n")  # missing at HEAD: counts 0 there
    (tmp_path / "c.py").unlink()  # missing now: counts 0 now
    out = run(tmp_path, "--against", "HEAD", "a.py", "b.py", "c.py")
    assert out.returncode == 0
    assert [line.split() for line in out.stdout.splitlines()] == [
        ["HEAD", "now", "change"],
        ["3", "4", "+1", "a.py"],
        ["0", "1", "+1", "b.py"],
        ["2", "0", "-2", "c.py"],
        ["5", "5", "+0", "total"],
    ]
    refused = run(tmp_path, "--against", "no-such-rev", "a.py")
    assert refused.returncode == 2 and "--against" in refused.stderr
