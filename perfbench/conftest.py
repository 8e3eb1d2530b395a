"""Make ``repro`` (from ``src/``) and ``perfbench`` importable in the tests.

Run the benchmark's own tests from the repository root with::

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
