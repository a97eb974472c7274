"""Put the checkout's ``src`` directory first on ``sys.path``.

The benchmark measures the source tree it ships with, never an installed
copy, so both entry points call :func:`use_checkout_source` before they
import ``dts``. Without ``src/dts`` next to this directory the benchmark
has nothing to measure and stops with an error.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def use_checkout_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "dts", "__init__.py")):
        sys.exit(f"perfbench: no dts package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import dts

    if not os.path.abspath(dts.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported dts from {dts.__file__}, not from {SRC}")
