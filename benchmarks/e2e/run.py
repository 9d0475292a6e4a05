"""Script entry of the benchmark (the ``command`` of BENCHMARK.json):
``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
from the repository root.  Puts the root and ``src/`` on the path, then
hands over to :mod:`benchmarks.e2e.cli`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e needs the program under {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
