"""The example scripts run end to end.

CI lints ``examples/`` but nothing else runs them, and they read the
public result API (``result.extras["fitted"]``,
``FedClust.incorporate_newcomer``), so each is run here as a subprocess
at a toy size and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent

_SCRIPTS = {
    "quickstart": ["--clients", "4", "--samples", "400", "--rounds", "2"],
    "newcomer_onboarding": ["--clients", "4", "--rounds", "2"],
    "compare_baselines": ["--clients", "4", "--samples", "400", "--rounds", "2"],
}


@pytest.mark.slow
@pytest.mark.parametrize("script", sorted(_SCRIPTS))
def test_example_exits_cleanly(script):
    # The BLAS thread variables conftest.py set are inherited.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "examples" / f"{script}.py"), *_SCRIPTS[script]],
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
