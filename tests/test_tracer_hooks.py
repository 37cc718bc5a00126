"""Every function the benchmark tracer hooks still exists.

bench/tracer.py replaces package functions by name to time them; a hook
whose function was renamed or moved is skipped and its layer reads 0. This
loads the tracer by path and resolves each hooked (module, attribute).
"""

import sys
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


# Executed from source, so no bytecode cache is written next to it.
tracer = types.ModuleType("bench_tracer")
exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), tracer.__dict__)
HOOKS = sorted({(m.__name__, attr) for m, attr, *_ in tracer.SPANS + tracer.PEAKS})


def test_tables_are_nonempty():
    assert tracer.SPANS and tracer.PEAKS


@pytest.mark.parametrize("module_name,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hook_resolves(module_name, attr):
    assert callable(getattr(sys.modules[module_name], attr, None))
