"""Pytest bootstrap: make ``src/`` importable without an installed wheel.

The offline environment has no ``wheel`` package, so ``pip install -e .``
cannot build editable metadata.  Adding ``src`` to ``sys.path`` here gives
tests and benchmarks the same import surface an editable install would.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
