"""The simulation core stands without its optional layers.

``repro.obs`` (tracing, metrics), ``repro.traffic`` (open-loop load) and
``repro.bench`` (runners) hang off the core; importing the core must not
load them, or every run pays their import and the core grows a
dependency on what it should only be observed by.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

CORE = ("repro", "repro.sim", "repro.rnic", "repro.cluster", "repro.core")
OPTIONAL = ("repro.obs", "repro.traffic", "repro.bench")


def test_core_imports_load_no_optional_layer():
    script = (
        f"import sys\n"
        f"import {', '.join(CORE)}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        f"{[name.split('.') for name in OPTIONAL]!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
