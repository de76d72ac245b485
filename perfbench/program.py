"""Locates the program under test: the intramorph sources of this checkout."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Make ``import intramorph`` load ``src/intramorph`` of this checkout.

    Exits with status 1, printing nothing on stdout, when the sources are
    missing, so a checkout without the program never yields a result.
    """
    package = SRC / "intramorph"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no intramorph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import intramorph

    if Path(intramorph.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported intramorph from {intramorph.__file__}, "
                 f"not from {package}")
