"""tools/interleave.py: the interleaved A/B timer of two source trees."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_interleave_times_this_tree_against_itself():
    """Both copies of this tree's kopt load side by side in one process, give
    the same answers, and the last line gives both medians and their ratio."""
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), src, src,
         "--k", "3", "--n", "12", "--reps", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    head, last = out.stdout.splitlines()
    assert head.startswith("k=3 n=12 alpha=default tour=random gain=")
    got = re.fullmatch(r"parent (\S+) s  change (\S+) s  ratio (\S+)", last)
    assert got and all(float(value) > 0 for value in got.groups()), last
