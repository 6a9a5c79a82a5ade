"""The benchmark's tracer wraps program functions by name.

`perfbench/tracer.py` lists in `SPANS` and `COUNTED` the functions and
methods it wraps in every traced run.  A name that the program no longer
defines breaks only the traced benchmark, which the test suite never runs,
so every listed name is resolved here against the program.  Its hooks read
fields of the wrapped functions' results and take their arguments by
position, so each hook is also fed a real result here.
"""

import importlib
import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from test_engine import graded_bracket_rule

from blocklie import engine, hweight
from blocklie.block import BlockParams, block_bracket_rule
from blocklie.engine import Element, Graded, Window

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


def traced(hook, fn, *args):
    """Call `fn` on `args`, then `hook` as the tracer does after a span."""
    result = fn(*args)
    hook(result, *args)
    return result


PARAMS = BlockParams(p=Fraction(0), q=Fraction(1))
# Lambda_k = 2^k: at p = 0, q = 1 its delta series is c_k = (k+2) 2^k, whose
# annihilator is (x-2)^2
POWERS = tuple(Fraction(2**k) for k in range(9))
# no recurrence of degree 1 or less on the horizon
SCATTERED = tuple(map(Fraction, (1, 2, 5, 3, 7, 1, 4, 9, 2)))


def test_the_recurrence_hook_counts_the_degrees_tried():
    t = tracer.Tracer()
    series = hweight.delta_from_labels(POWERS, PARAMS, 8)
    found = traced(t._recurrence, hweight.detect_linear_recurrence, series)
    assert found is not None and found.annihilator == (4, -4, 1)
    assert t.counters["hweight.recurrence_degrees_tried"] == 2
    series = hweight.delta_from_labels(SCATTERED, PARAMS, 8)
    assert traced(t._recurrence, hweight.detect_linear_recurrence, series, 1) is None
    # a search without a certificate tries up to the horizon's half, capped
    assert t.counters["hweight.recurrence_degrees_tried"] == 2 + min(8 // 2, 1)


def test_the_kernel_hook_counts_the_matrix_cells():
    t = tracer.Tracer()
    found = traced(t._kernel, hweight.singular_vector_solve, POWERS, PARAMS, 2, 5)
    assert [c.coefficients for c in found] == [(4, -4, 1)]
    assert t.counters["hweight.kernel_cells"] == 6 * 3


def test_the_closure_hook_sums_the_dimensions():
    t = tracer.Tracer()
    generators = [Element.basis(Graded(1, 0)), Element.basis(Graded(-1, 0))]
    rule = block_bracket_rule(BlockParams(p=Fraction(1, 2), q=Fraction(-7, 5)))
    closure = traced(t._closure, engine.subalgebra_closure, rule, generators, Window(-2, 2, 1))
    assert closure.dimension() > 2
    assert t.closure_dims == closure.dimension()


def test_the_grid_hook_counts_the_points_scanned():
    t = tracer.Tracer()
    grades, levels = [-1, 0, 1], [0, 1, 2]
    singles = list(itertools.product(grades, levels))
    holds = graded_bracket_rule(1, 1, mu=2, theta=1)
    verdict = traced(t._grid, engine.grid_identity_check, holds, "jacobi", grades, levels)
    assert verdict.holds
    assert t.counters["engine.grid_points"] == len(singles) ** 3
    fails = graded_bracket_rule(1, 1, perturb_alpha_p=True)
    verdict = traced(t._grid, engine.grid_identity_check, fails, "jacobi", grades, levels)
    assert not verdict.holds
    # a failed scan stops at its witness, in itertools.product order
    scanned = list(itertools.product(singles, repeat=3)).index(verdict.witness) + 1
    assert t.counters["engine.grid_points"] == len(singles) ** 3 + scanned
