"""The functions that the benchmark's tracer wraps by name all still exist.

`perfbench/tracing.py` reports a missing target as absent and its per-layer
metrics as 0 instead of failing, so a rename would silently blank them.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    # compiled from the source text, so no bytecode is written beside it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()
