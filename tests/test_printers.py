"""Exact text forms of the signed-sum printers and of the machine report.

These strings reach reports (generator echoes, residuals, certificate
polynomials), so each is pinned byte for byte.  The machine format is pinned
to `json.dumps(document, sort_keys=True, indent=2)`, which its dedicated
writer reproduces.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocklie import novikov
from blocklie.cli import Report, emit_report, load_config, run_job
from blocklie.engine import CENTRAL, Element, Graded, grid_identity_check
from blocklie.hweight import format_poly
from blocklie.intermediate import ModuleVector
from blocklie.scalars import PolyRing


def run_payload(tmp_path, payload) -> dict:
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    return run_job(load_config(str(path))).results


def test_element_signs_unit_coefficients_and_central():
    elem = Element(
        {
            Graded(-1, 2): -2,
            Graded(0, 0): 1,
            Graded(0, 1): -1,
            Graded(3, 0): Fraction(5, 3),
            CENTRAL: -1,
        }
    )
    assert str(elem) == "-2*L[-1,2] + L[0,0] - L[0,1] + 5/3*L[3,0] - c"
    assert str(Element({CENTRAL: 1, Graded(2, 0): Fraction(-1, 2)})) == "-1/2*L[2,0] + c"
    assert str(Element.zero()) == "0"


def test_element_with_poly_coefficients():
    ring = PolyRing("p", "q")
    p, q = ring.var("p"), ring.var("q")
    elem = Element({Graded(1, 0): p * q - ring.one, Graded(0, 0): -q, Graded(2, 1): Fraction(-3)})
    assert str(elem) == "(-q)*L[0,0] + (p*q - 1)*L[1,0] - 3*L[2,1]"


def test_symbolic_failing_residuals(tmp_path):
    results = run_payload(
        tmp_path,
        {
            "job": "axioms",
            "p": "symbolic",
            "mu": "symbolic",
            "theta": 1,
            "grades": ["-1", "0", "1"],
            "perturb": {"target": "main", "exponents": [1, 0], "delta": "1"},
        },
    )
    assert results["left_symmetry"] == {
        "verdict": "fails",
        "witness": ["-1", "0", "-1"],
        "residual": "(-p + 2)*L[-2,0] + (-mu)*L[-1,0]",
    }
    assert results["right_commutativity"]["residual"] == "(-p + 2)*L[-2,0] + (-mu)*L[-1,0]"

    ring = PolyRing("p", "mu", "q")
    p, mu, q = (ring.var(name) for name in ring.symbols)
    rule = novikov.perturbed_witt_rule(
        novikov.WittNovikovParams(p=p, mu=mu, theta=1), "shift", (1, 1), Fraction(1, 2)
    )
    verdict = grid_identity_check(
        novikov.affinize(rule, novikov.AffinizationParams(q=q)),
        "jacobi",
        [-1, 0, 1, 2, 3],
        [0, 1, 2],
    )
    assert verdict.witness == ((-1, 0), (-1, 1), (0, 0))
    assert str(verdict.residual) == "(-1/2*q)*L[-1,1] + (1/2*mu)*L[0,1]"


def test_module_vector_format_and_modcheck_residual(tmp_path):
    vec = ModuleVector({2: Fraction(-2, 3), -1: 1, 0: 5})
    assert str(vec) == "1*v[-1] + 5*v[0] + -2/3*v[2]"
    results = run_payload(
        tmp_path,
        {
            "job": "modcheck",
            "p": "3",
            "q": "1",
            "family": "Aab",
            "a": "1/2",
            "b": "0",
            "window": {"grade_min": -2, "grade_max": 2, "level_max": 0},
            "weight_range": [-2, 2],
            "central_value": "1",
        },
    )
    assert results["module_axiom"] == {
        "verdict": "fails",
        "witness": [2, -2, 0, 0, -2],
        "residual": "1/2*v[-2]",
    }


def test_poly_constant_and_unit_terms():
    ring = PolyRing("p", "q")
    p, q = ring.var("p"), ring.var("q")
    assert str(p**2 - q + 1) == "p^2 - q + 1"
    assert str(-p * q + Fraction(3, 2)) == "-p*q + 3/2"
    assert str(ring.const(-1)) == "-1"
    assert str(-p + 1) == "-p + 1"
    assert str(Fraction(-2, 3) * q**3 + p - ring.const(4)) == "p - 2/3*q^3 - 4"
    assert str(q - p**2) == "-p^2 + q"


def test_format_poly_signs_and_variable():
    assert format_poly([Fraction(1), Fraction(0), Fraction(-3)]) == "-3*t^2 + 1"
    assert format_poly([Fraction(0)]) == "0"
    assert format_poly([Fraction(-1), Fraction(1)], "z") == "z - 1"
    assert format_poly([0, -1, Fraction(1, 2), -1], "z") == "-z^3 + 1/2*z^2 - z"


# strings with every character class the JSON escaper treats apart: quote,
# backslash, control characters, DEL, non-ASCII, astral (a surrogate pair)
texts = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x08\n\x1f\x7f\xe9\u2028\U0001f600')),
    max_size=8,
)
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.sampled_from([0, -1, 10**80, -(10**80)]),
    texts,
)
documents = st.recursive(
    atoms,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(texts, inner, max_size=4)),
    max_leaves=16,
)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.dictionaries(texts, documents, max_size=4), st.dictionaries(texts, documents, max_size=4))
@example({}, {"empty": [{}, [], ""], "nested": {"z": [None, True, False], "a": -(10**30)}})
def test_the_machine_writer_matches_json_dumps(config, results):
    report = Report("job", config, results, True, 0.0)
    document = {"job": "job", "config": config, "results": results, "positive": True}
    assert emit_report(report, "machine") == json.dumps(document, sort_keys=True, indent=2) + "\n"


def test_the_machine_writer_refuses_a_float():
    # no report holds a float; json would print one, the writer raises
    for results in ({"x": 1.5}, {"x": [0.0]}, {"x": {"y": float("nan")}}):
        with pytest.raises(TypeError):
            emit_report(Report("job", {}, results, False, 0.0), "machine")
