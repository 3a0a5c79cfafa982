"""The benchmark's tracer finds every entry point it wraps.

`perfbench/tracer.py` wraps named functions and methods of the package at run
time. A renamed or removed one would otherwise show only as `correct: false`
in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import microdet

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_entry_point():
    tracer = load_tracer_module().Tracer(microdet)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.remove()
