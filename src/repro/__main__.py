"""``python -m repro`` entry point.

A one-shot command keeps what it builds (points-to maps, call graph,
SHBG) until the process ends, so Python's cyclic garbage collector would
only re-walk that heap: automatic collection is off from before the CLI
is imported, and the heap is frozen once ``main()`` returns, which keeps
the interpreter's collection at exit from walking it too. Frozen objects
are never finalized, so nothing may rely on a finalizer at exit: the
ledger, trace, report and cache files are all closed explicitly.
``repro serve`` turns collection back on; forked corpus workers collect
once after each task (:mod:`repro.corpus.scheduler`).
"""

import gc
import sys

gc.disable()

from repro.cli import main  # noqa: E402  (after gc.disable: imports allocate)

try:
    sys.exit(main())
finally:
    gc.freeze()
