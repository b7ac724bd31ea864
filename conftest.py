"""Pin BLAS pools to one thread for every test directory, before numpy loads.

OpenBLAS and its kin read their thread count once, when numpy first loads,
and start one thread per CPU by default; small matrix products then run
several times slower whenever another process holds a CPU. The variables
are the CLI's own (``hsiscale.cli._BLAS_ENV_VARS``), read from its source
because importing hsiscale would load numpy. Values already set win.
"""

import ast
import os
import sys
from pathlib import Path

if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before the root conftest.py could pin BLAS to one thread")


def _blas_env_vars() -> tuple[str, ...]:
    tree = ast.parse((Path(__file__).parent / "src" / "hsiscale" / "cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_BLAS_ENV_VARS"]:
            return ast.literal_eval(node.value)
    raise RuntimeError("hsiscale.cli defines no _BLAS_ENV_VARS")


for _var in _blas_env_vars():
    os.environ.setdefault(_var, "1")
