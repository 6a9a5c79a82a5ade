"""The benchmark's tracer wraps program functions by name.

`perfbench/tracer.py` lists in `SPANS` and `COUNTED` the functions and
methods it wraps in every traced run.  A name that the program no longer
defines breaks only the traced benchmark, which the test suite never runs,
so every listed name is resolved here against the program.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
SPANNED = [(module, name) for module, names in tracer.SPANS.items() for name in names]


@pytest.mark.parametrize("module,name", SPANNED, ids=[f"{m}.{n}" for m, n in SPANNED])
def test_every_span_names_a_program_function(module, name):
    assert callable(getattr(importlib.import_module(f"blocklie.{module}"), name))


@pytest.mark.parametrize("metric", sorted(tracer.COUNTED))
def test_every_counted_name_resolves_as_the_tracer_reads_it(metric):
    module, class_name, attr = tracer.COUNTED[metric]
    owner = importlib.import_module(f"blocklie.{module}")
    if class_name is None:
        assert callable(getattr(owner, attr))
    else:
        # the tracer reads methods from the class's own namespace
        assert callable(vars(getattr(owner, class_name))[attr])
