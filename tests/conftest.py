"""Put perfbench/ on the import path, once for the whole session.

perfbench is a directory of scripts, not a package; its own tests import
its modules by name, and so do these (``workloads``, ``checks``,
``tracing``).  Every test then shares one module object per perfbench
file, so one tracer patches the solver, and a break in perfbench fails the
tests that import it.
"""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)
