"""``python -m benchmarks.e2e`` (with ``PYTHONPATH=src``)."""

import sys

from .cli import main

sys.exit(main())
