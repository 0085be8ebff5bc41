"""Run a check script in a fresh ``python -O`` interpreter.

Under -O every assert is gone, so each correctness check that must
survive it is tested by a script that patches a callee (or passes bad
input), runs the check and prints one ``VerificationFailed: ...`` line,
or a line naming the error it expects, per defect it caught.
This module is not a test module, so pytest does not rewrite its asserts
and ``python -O -m pytest`` would drop them: it fails through
``pytest.fail``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_caught_under_optimize(
    script: str, *args: str, count: int = 1, error: str = "VerificationFailed"
) -> None:
    """Run ``python -O -c script *args``; expect ``count`` caught ``error`` lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    if result.returncode != 0:
        pytest.fail(result.stderr)
    lines = result.stdout.splitlines()
    if len(lines) != count or not all(line.startswith(f"{error}:") for line in lines):
        pytest.fail(result.stdout)
