"""Time the program's set-up in a fresh interpreter and print it in seconds.

Usage: python3 setup_probe.py SRC_DIR maze|cli|SPEC_FILE

Measures from this script's first statement to a validated model: importing
efeplan (and efeplan.cli for ``cli``), then building the maze or loading the
spec file, then validate().
"""
import time

_start = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import efeplan  # noqa: E402,F401
import efeplan.model  # noqa: E402
import efeplan.tmaze  # noqa: E402

if sys.argv[2] == "cli":
    import efeplan.cli  # noqa: E402,F401
if sys.argv[2] in ("maze", "cli"):
    model = efeplan.tmaze.build_tmaze_model()
else:
    model = efeplan.model.load_spec(sys.argv[2])
if efeplan.model.validate(model):
    sys.exit("setup_probe: model failed validation")
print(repr(time.perf_counter() - _start))
