import ast
import json
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_block import X, patched_cocycle, perturbed_coefficient
from test_engine import assert_same_terms

from blocklie import block, cli, engine, hweight
from blocklie.cli import (
    ConfigError,
    emit_report,
    load_config,
    main,
    parse_element,
    run_job,
)
from blocklie.engine import CENTRAL, Element, Graded

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
DATA = Path(__file__).resolve().parent / "data"


def write_config(tmp_path, payload) -> str:
    """The payload as JSON, or as it is when it is bytes, in a file."""
    path = tmp_path / "job.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def classify_payload(**overrides):
    payload = {
        "job": "classify",
        "p": "2",
        "q": "1",
        "horizon": 10,
        "weight": {"qp": [{"poly": ["2"], "base": "1"}], "central": "0"},
    }
    payload.update(overrides)
    return payload


def test_parse_element_round_trips():
    elem = parse_element("L[1,0] - 2*L[-3,4] + 1/2*c")
    assert_same_terms(elem, {Graded(1, 0): 1, Graded(-3, 4): -2, CENTRAL: Fraction(1, 2)})
    assert_same_terms(parse_element(str(elem)), elem.terms)
    assert_same_terms(parse_element("c"), {CENTRAL: 1})
    # a zero element prints as "0", however it was written
    for zero in ["0", " 0 ", "0*L[1,0]", "L[1,0] - L[1,0]"]:
        assert_same_terms(parse_element(zero), {})
        assert str(parse_element(zero)) == "0"
    assert_same_terms(parse_element(str(Element.zero())), {})
    bad_texts = ["", "L[1]", "q*L[1,0]", "L[1,0]*2", "2**L[1,0]", "L[1,-1]", "00*", "-0"]
    # a sign with no term after it
    bad_texts += ["L[1,0]+", "L[1,0] + ", "L[1,0]-", "L[1,0] - ", "+", "-"]
    for bad in bad_texts:
        with pytest.raises(ConfigError):
            parse_element(bad)


labels = st.one_of(
    st.just(CENTRAL), st.builds(Graded, st.integers(-9, 9), st.integers(0, 9))
)
coefficients = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
digits = st.text("0123456789", min_size=1, max_size=4)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from(["", "+", "-"]), digits, st.one_of(st.none(), digits), st.booleans())
def test_a_coefficient_reads_as_its_fraction_literal(sign, num, den, star):
    # the coefficient is read from the numerator and denominator that the term
    # pattern matched; leading zeros are allowed on both, and a denominator of
    # zeros only is refused with the message of any unparsable term
    coeff = sign + num + ("" if den is None else "/" + den)
    text = coeff + ("*" if star else "") + "L[2,1]"
    if den is not None and not den.strip("0"):
        with pytest.raises(ConfigError, match="denominator is nonzero"):
            parse_element(text)
        return
    if sign == "+":
        # a leading + reads as no sign
        assert_same_terms(parse_element(text), parse_element(text[1:]).terms)
        return
    value = Fraction(coeff)
    assert_same_terms(parse_element(text), {Graded(2, 1): value} if value else {})
    if not sign:
        expected = {CENTRAL: 1, **({Graded(2, 1): -value} if value else {})}
        assert_same_terms(parse_element("c - " + text), expected)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.dictionaries(labels, coefficients, max_size=5))
def test_every_element_prints_and_parses_back(terms):
    elem = Element({label: coeff for label, coeff in terms.items() if coeff})
    assert_same_terms(parse_element(str(elem)), elem.terms)


def test_load_config_parse_error_has_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "job": "classify",\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(str(path))


def test_load_config_unknown_job(tmp_path):
    with pytest.raises(ConfigError, match="'job' must be one of"):
        load_config(write_config(tmp_path, {"job": "frobnicate"}))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.json")


def test_blockcheck_rejects_zero_q(tmp_path):
    payload = {
        "job": "blockcheck",
        "p": "1",
        "q": "0",
        "window": {"grade_min": -2, "grade_max": 2, "level_max": 1},
    }
    with pytest.raises(ConfigError, match="q must be nonzero"):
        load_config(write_config(tmp_path, payload))


def test_classify_missing_weight_names_field(tmp_path):
    payload = classify_payload()
    del payload["weight"]
    with pytest.raises(ConfigError, match="'weight'"):
        load_config(write_config(tmp_path, payload))


def test_classify_short_labels_name_required_horizon(tmp_path):
    payload = classify_payload(weight={"labels": ["1", "2"], "central": "0"})
    with pytest.raises(ConfigError, match="11 labels required"):
        load_config(write_config(tmp_path, payload))


def test_unrealizable_qp_is_an_input_error(tmp_path):
    payload = classify_payload(
        p="3", q="4", weight={"qp": [{"poly": ["1"], "base": "1"}], "central": "0"}
    )
    with pytest.raises(ConfigError, match="singular index k=1"):
        load_config(write_config(tmp_path, payload))


def test_machine_report_is_byte_deterministic(tmp_path):
    config = load_config(write_config(tmp_path, classify_payload()))
    first = emit_report(run_job(config), "machine")
    second = emit_report(run_job(config), "machine")
    assert first == second
    text = emit_report(run_job(config), "text")
    assert text == emit_report(run_job(config), "text")
    assert "elapsed" not in first and "elapsed" not in text


def test_affinize_job_with_mutation_sweep(tmp_path):
    payload = {
        "job": "affinize",
        "p": "2",
        "mu": "1/2",
        "theta": 1,
        "q": "1",
        "mutations": {"count": 5, "seed": 11},
    }
    config = load_config(write_config(tmp_path, payload))
    report = run_job(config)
    assert report.positive
    sweep = report.results["mutations"]["sweep"]
    assert len(sweep) == 5
    assert all(entry["equivalence_observed"] for entry in sweep)
    # at least one mutation must genuinely break the axioms for the sweep to
    # be informative
    assert any(not entry["novikov_holds"] for entry in sweep)
    assert emit_report(report, "machine") == emit_report(run_job(config), "machine")


def test_axioms_table_mode(tmp_path):
    payload = {
        "job": "axioms",
        "table": [
            {"a": 0, "b": 0, "out": [{"grade": 0, "coeff": "1"}]},
        ],
    }
    config = load_config(write_config(tmp_path, payload))
    report = run_job(config)
    assert report.positive
    assert report.results["mode"] == "table"
    # table verdicts never claim universality
    assert report.results["left_symmetry"]["verdict"] == "holds_on_tested_grid"
    assert config.settings["grades"] == ["0"]


def test_axioms_table_mode_rejects_family_fields(tmp_path):
    payload = {
        "job": "axioms",
        "p": "1",
        "table": [{"a": 0, "b": 0, "out": []}],
    }
    with pytest.raises(ConfigError, match="does not apply in table mode"):
        load_config(write_config(tmp_path, payload))


def test_mutations_require_seed(tmp_path):
    payload = {
        "job": "affinize",
        "p": "2",
        "q": "1",
        "mutations": {"count": 3},
    }
    with pytest.raises(ConfigError, match="seed"):
        load_config(write_config(tmp_path, payload))


def test_blockcheck_job_with_symbolic_q(tmp_path):
    payload = {
        "job": "blockcheck",
        "p": "3",
        "q": "symbolic",
        "window": {"grade_min": -3, "grade_max": 3, "level_max": 1},
    }
    config = load_config(write_config(tmp_path, payload))
    report = run_job(config)
    assert report.positive
    for check in report.results.values():
        assert check["verdict"] == "holds_universally"


def test_symbolic_rejected_where_concrete_required(tmp_path):
    payload = classify_payload(p="symbolic")
    with pytest.raises(ConfigError, match="cannot be symbolic"):
        load_config(write_config(tmp_path, payload))


def test_exit_status_contract(tmp_path, capsys):
    # positive verdict -> 0
    ok = write_config(tmp_path, classify_payload())
    assert main(["--config", ok, "--format", "machine"]) == 0
    capsys.readouterr()

    # negative verdict -> 1 (factorial labels are not quasifinite)
    factorials = [str(__import__("math").factorial(k)) for k in range(13)]
    bad = tmp_path / "neg.json"
    bad.write_text(
        json.dumps(
            classify_payload(horizon=12, weight={"labels": factorials, "central": "0"})
        )
    )
    assert main(["--config", str(bad), "--format", "machine"]) == 1
    out = capsys.readouterr()
    assert "not_quasifinite_up_to_horizon" in out.out

    # input error -> 2
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr()
    assert "error:" in err.err


EXIT_CASES = [
    # (name, expected exit, payload)
    ("axioms_ok", 0, {"job": "axioms", "p": "2", "mu": "3", "theta": 1}),
    (
        "axioms_fail",
        1,
        {
            "job": "axioms",
            "p": "2",
            "theta": 1,
            "grades": ["-1", "0", "1"],
            "perturb": {"target": "main", "exponents": [1, 0], "delta": "1"},
        },
    ),
    ("affinize_ok", 0, {"job": "affinize", "p": "2", "mu": "1", "theta": 1, "q": "1"}),
    (
        "blockcheck_ok",
        0,
        {
            "job": "blockcheck",
            "p": "1",
            "q": "1",
            "window": {"grade_min": -2, "grade_max": 2, "level_max": 1},
        },
    ),
    (
        "classify_ok",
        0,
        {
            "job": "classify",
            "p": "2",
            "q": "1",
            "horizon": 8,
            "weight": {"qp": [{"poly": ["2"], "base": "1"}]},
        },
    ),
    (
        "classify_fail",
        1,
        {
            "job": "classify",
            "p": "2",
            "q": "1",
            "horizon": 8,
            "weight": {"labels": ["1", "1", "2", "6", "24", "120", "720", "5040", "40320"]},
        },
    ),
    (
        "classify_zero_weight_horizon_one",
        1,
        {
            "job": "classify",
            "p": "2",
            "q": "1",
            "horizon": 1,
            "weight": {"labels": ["0", "0"]},
        },
    ),
    (
        "singular_ok",
        0,
        {
            "job": "singular",
            "p": "0",
            "q": "1",
            "max_level": 1,
            "horizon": 4,
            "weight": {"qp": [{"poly": ["1"], "base": "2"}]},
        },
    ),
    (
        "singular_fail",
        1,
        {
            "job": "singular",
            "p": "2",
            "q": "1",
            "max_level": 1,
            "horizon": 4,
            "weight": {"labels": ["1", "4", "9", "17", "31", "2"]},
        },
    ),
    (
        "crosscheck_ok",
        0,
        {
            "job": "crosscheck",
            "p": "0",
            "q": "1",
            "max_level": 1,
            "horizon": 6,
            "weight": {"qp": [{"poly": ["1"], "base": "2"}]},
        },
    ),
    (
        "crosscheck_disagree",
        1,
        {
            "job": "crosscheck",
            "p": "2",
            "q": "1",
            "max_level": 1,
            "horizon": 6,
            "weight": {"qp": [{"poly": ["2"], "base": "1"}]},
        },
    ),
    (
        "closure_ok",
        0,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
            "generators": ["L[1,0]", "L[2,0]"],
        },
    ),
    (
        "modcheck_ok",
        0,
        {
            "job": "modcheck",
            "p": "3",
            "q": "1",
            "family": "Ba",
            "a": "2",
            "window": {"grade_min": -2, "grade_max": 2, "level_max": 1},
            "weight_range": [-3, 3],
        },
    ),
    (
        "modcheck_fail",
        1,
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
    ),
    ("rational_as_list", 2, {"job": "axioms", "p": [1]}),
    ("rational_as_float", 2, {"job": "axioms", "p": 0.5}),
    ("rational_as_bool", 2, {"job": "axioms", "p": True}),
    (
        "blockcheck_short_cocycle_grid",
        2,
        {
            "job": "blockcheck",
            "p": "1",
            "q": "1",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
            "cocycle_grades": ["0", "1"],
        },
    ),
    (
        "blockcheck_short_jacobi_grid",
        2,
        {
            "job": "blockcheck",
            "p": "1",
            "q": "1",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
            "jacobi_grades": ["0"],
        },
    ),
    (
        "affinize_short_level_grid",
        2,
        {"job": "affinize", "p": "1", "q": "1", "levels": ["0", "1"]},
    ),
    (
        "perturb_exponent_bool",
        2,
        {
            "job": "axioms",
            "p": "2",
            "perturb": {"target": "main", "exponents": [True, 0], "delta": "1"},
        },
    ),
    (
        "crosscheck_single_coefficient",
        2,
        {
            "job": "crosscheck",
            "p": "0",
            "q": "1",
            "max_level": 0,
            "horizon": 0,
            "weight": {"qp": [{"poly": ["1"], "base": "2"}]},
        },
    ),
    (
        "classify_horizon_over_limit",
        2,
        {
            "job": "classify",
            "p": "2",
            "q": "1",
            "horizon": 100000000,
            "weight": {"qp": [{"poly": ["2"], "base": "1"}]},
        },
    ),
    (
        "crosscheck_series_over_limit",
        2,
        {
            "job": "crosscheck",
            "p": "1/3",
            "q": "1",
            "max_level": 3,
            "horizon": 498,
            "weight": {"qp": [{"poly": ["2"], "base": "1/2"}]},
        },
    ),
    (
        "singular_max_level_over_limit",
        2,
        {
            "job": "singular",
            "p": "2",
            "q": "1",
            "max_level": 501,
            "horizon": 0,
            "weight": {"qp": [{"poly": ["2"], "base": "1"}]},
        },
    ),
    (
        "singular_kernel_over_limit",
        2,
        {
            "job": "singular",
            "p": "2/3",
            "q": "-5/7",
            "max_level": 31,
            "horizon": 31,
            "weight": {"qp": [{"poly": ["1"], "base": "89/97"}]},
        },
    ),
    (
        "weight_range_bool",
        2,
        {
            "job": "modcheck",
            "p": "3",
            "q": "1",
            "family": "Ba",
            "a": "2",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
            "weight_range": [False, True],
        },
    ),
    (
        "unread_top_level_typo",
        2,
        {"job": "affinize", "p": "2", "mu": "1", "theta": 1, "q": "1", "grade": ["0"]},
    ),
    (
        "unread_theta_on_block_closure",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "theta": "x",
            "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
            "generators": ["L[1,0]"],
        },
    ),
    (
        "unread_window_key",
        2,
        {
            "job": "blockcheck",
            "p": "1",
            "q": "1",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0, "levels": 2},
        },
    ),
    (
        "unread_qp_term_key",
        2,
        {
            "job": "classify",
            "p": "2",
            "q": "1",
            "horizon": 8,
            "weight": {"qp": [{"poly": ["2"], "base": "1", "degree": 0}]},
        },
    ),
    (
        "closure_negative_level",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 0, "grade_max": 2, "level_max": 1},
            "generators": ["L[1,-1]"],
        },
    ),
    (
        "closure_oversized_window",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": -100000, "grade_max": 100000, "level_max": 100000},
            "generators": ["L[1,0]", "L[-1,1]"],
        },
    ),
    ("perturb_null", 2, {"job": "axioms", "p": "2", "perturb": None}),
    ("mutations_null", 2, {"job": "affinize", "p": "2", "q": "1", "mutations": None}),
    (
        "closure_generator_zero_denominator",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
            "generators": ["1/0*L[1,0]"],
        },
    ),
    (
        "closure_membership_zero_denominator",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
            "generators": ["L[1,0]"],
            "membership": ["L[1,0]", "L[2,0] - 3/00*L[3,0]"],
        },
    ),
    (
        "closure_generator_outside_window",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": -2, "grade_max": 2, "level_max": 1},
            "generators": ["L[-1,0]", "L[1,0] + L[9,0]"],
        },
    ),
    (
        "closure_membership_outside_window",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 1, "grade_max": 4, "level_max": 0},
            "generators": ["L[1,0]"],
            "membership": ["L[1,0]", "L[2,0] + c"],
        },
    ),
    (
        "closure_membership_not_a_list",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
            "generators": ["L[1,0]"],
            "membership": 5,
        },
    ),
    (
        "closure_generator_dangling_sign",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
            "generators": ["L[2,0]", "L[1,0] + "],
        },
    ),
    (
        # "0" is how a zero element prints, and it reads back in
        "closure_zero_elements",
        0,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
            "generators": ["L[1,0]", "0", "0*L[2,0]"],
            "membership": ["0", "L[2,0] - L[2,0]"],
        },
    ),
    (
        "affinize_mutations_over_limit",
        2,
        {"job": "affinize", "p": "2", "q": "1", "mutations": {"count": 101, "seed": 0}},
    ),
    (
        "axioms_table_grid_over_limit",
        2,
        {
            "job": "axioms",
            "table": [{"a": 0, "b": 0, "out": [{"grade": 0, "coeff": "1"}]}],
            "grades": [str(k) for k in range(51)],
        },
    ),
    (
        "blockcheck_jacobi_grid_over_limit",
        2,
        {
            "job": "blockcheck",
            "p": "1",
            "q": "1",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
            "jacobi_levels": [str(k) for k in range(51)],
        },
    ),
    (
        "blockcheck_window_over_limit",
        2,
        {
            "job": "blockcheck",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 0, "grade_max": 200, "level_max": 0},
        },
    ),
    (
        "modcheck_weight_range_over_limit",
        2,
        {
            "job": "modcheck",
            "p": "3",
            "q": "1",
            "family": "Ba",
            "a": "2",
            "window": {"grade_min": -2, "grade_max": 2, "level_max": 1},
            "weight_range": [-100, 101],
        },
    ),
    (
        "modcheck_pair_weights_over_limit",
        2,
        {
            "job": "modcheck",
            "p": "3",
            "q": "1",
            "family": "Ba",
            "a": "2",
            "window": {"grade_min": -49, "grade_max": 50, "level_max": 9},
            "weight_range": [0, 1],
        },
    ),
    ("axioms_duplicate_grades", 2, {"job": "axioms", "p": "2", "grades": ["0", "1", "1"]}),
    ("axioms_short_grid", 2, {"job": "axioms", "p": "2", "grades": ["0", "1"]}),
    (
        "axioms_perturbed_short_grid",
        2,
        {
            "job": "axioms",
            "p": "2",
            "grades": ["-1", "0", "1"],
            "perturb": {"target": "main", "exponents": [2, 0], "delta": "1"},
        },
    ),
    (
        "axioms_table_duplicate_pair",
        2,
        {
            "job": "axioms",
            "table": [
                {"a": 0, "b": 1, "out": [{"grade": 1, "coeff": "1"}]},
                {"a": 0, "b": 1, "out": [{"grade": 1, "coeff": "2"}]},
            ],
        },
    ),
    (
        "closure_reversed_window",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 2, "grade_max": 1, "level_max": 0},
            "generators": ["L[1,0]"],
        },
    ),
    # the loader's checks below are the only checks of their conditions
    (
        "modcheck_unknown_family",
        2,
        {
            "job": "modcheck",
            "p": "3",
            "q": "1",
            "family": "Xy",
            "a": "2",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
            "weight_range": [-1, 1],
        },
    ),
    (
        "modcheck_aab_without_b",
        2,
        {
            "job": "modcheck",
            "p": "3",
            "q": "1",
            "family": "Aab",
            "a": "2",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
            "weight_range": [-1, 1],
        },
    ),
    (
        "modcheck_b_outside_aab",
        2,
        {
            "job": "modcheck",
            "p": "3",
            "q": "1",
            "family": "Ba",
            "a": "2",
            "b": "1",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
            "weight_range": [-1, 1],
        },
    ),
    (
        "axioms_unknown_perturb_target",
        2,
        {
            "job": "axioms",
            "p": "2",
            "perturb": {"target": "both", "exponents": [0, 0], "delta": "1"},
        },
    ),
    (
        "axioms_negative_perturb_exponent",
        2,
        {
            "job": "axioms",
            "p": "2",
            "perturb": {"target": "main", "exponents": [-1, 0], "delta": "1"},
        },
    ),
    ("axioms_fractional_theta", 2, {"job": "axioms", "p": "2", "theta": 1.5}),
    (
        "closure_negative_level_max",
        2,
        {
            "job": "closure",
            "p": "1",
            "q": "1",
            "window": {"grade_min": 0, "grade_max": 1, "level_max": -1},
            "generators": ["L[1,0]"],
        },
    ),
    (
        "modcheck_reversed_weight_range",
        2,
        {
            "job": "modcheck",
            "p": "3",
            "q": "1",
            "family": "Ba",
            "a": "2",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
            "weight_range": [3, -3],
        },
    ),
    ("config_not_an_object", 2, []),
    # raw bytes, written as they are: a string holding the byte 0xff, JSON
    # nested 100,000 deep and an integer literal past CPython's 4,300 digits
    ("config_not_utf8", 2, b'{"job": "\xff"}'),
    ("config_nested_too_deep", 2, b"[" * 100_000),
    ("config_integer_too_long", 2, b'{"job": "classify", "horizon": ' + b"9" * 5000 + b"}"),
]


@pytest.mark.parametrize("name,expected,payload", EXIT_CASES, ids=[c[0] for c in EXIT_CASES])
def test_exit_status_per_job_kind(tmp_path, capsys, name, expected, payload):
    path = write_config(tmp_path, payload)
    assert main(["--config", path, "--format", "machine"]) == expected
    capsys.readouterr()


@pytest.mark.parametrize(
    "name,path",
    [
        ("unread_top_level_typo", "grade"),
        ("unread_theta_on_block_closure", "theta"),
        ("unread_window_key", "window.levels"),
        ("unread_qp_term_key", "weight.qp[0].degree"),
    ],
)
def test_unread_field_is_named(tmp_path, capsys, name, path):
    payload = {case[0]: case[2] for case in EXIT_CASES}[name]
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert f"field '{path}' does not apply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,path",
    [("affinize_short_level_grid", "levels"), ("blockcheck_short_jacobi_grid", "jacobi_grades")],
)
def test_short_grid_names_its_one_field(tmp_path, capsys, name, path):
    payload = {case[0]: case[2] for case in EXIT_CASES}[name]
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert f"field '{path}': " in err and " or " not in err


@pytest.mark.parametrize("name,path", [("perturb_null", "perturb"), ("mutations_null", "mutations")])
def test_null_object_is_named(tmp_path, capsys, name, path):
    payload = {case[0]: case[2] for case in EXIT_CASES}[name]
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert f"field '{path}' must be an object" in capsys.readouterr().err


def test_oversized_window_is_named(tmp_path, capsys):
    payload = {case[0]: case[2] for case in EXIT_CASES}["closure_oversized_window"]
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert "closure: field 'window' has 20000300001 graded labels" in capsys.readouterr().err


def test_short_witt_axioms_grid_is_named(tmp_path, capsys, monkeypatch):
    # the Witt rule's degrees size the grid, and the rule is built at load:
    # the grid is refused before any proof runs
    def no_proof(*args):
        raise AssertionError("a proof ran")

    monkeypatch.setattr(engine, "_prove", no_proof)
    payload = {case[0]: case[2] for case in EXIT_CASES}["axioms_short_grid"]
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    message = "axioms: field 'grades': grade grid needs at least 3 distinct values, got 2"
    assert message in capsys.readouterr().err


def test_identity_grids_are_judged_on_the_rules_the_job_proves(tmp_path):
    # affinize proves the Witt product's Novikov axioms and its affinization's
    # Jacobi identity, blockcheck the delta-free term's: each degree 1 in the
    # grades and levels it reads, so each grid needs 3 values
    novikov_axioms = ("left_symmetry", "right_commutativity")
    config = load_config(write_config(tmp_path, {"job": "affinize", "p": "1", "q": "1"}))
    _, _, product, affinized, grades, levels, _ = config.run.args
    assert engine.grid_needs(product, novikov_axioms) == {"grade": 3, "level": 1}
    assert engine.grid_needs(affinized, ["jacobi"]) == {"grade": 3, "level": 3}
    assert len(grades) == 5 and len(levels) == 3
    window = {"grade_min": -1, "grade_max": 1, "level_max": 0}
    payload = {"job": "blockcheck", "p": "1", "q": "1", "window": window}
    _, rule, grades, levels = load_config(write_config(tmp_path, payload)).run.args
    assert engine.grid_needs(rule, ["jacobi"]) == {"grade": 3, "level": 3}
    assert len(grades) == 3 and len(levels) == 3


def test_no_runner_reads_an_input_error():
    # every input error is raised by load_config: a runner neither raises
    # ConfigError nor catches anything to translate into one
    tree = ast.parse(Path(cli.__file__).read_text())
    runners = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")
    ]
    assert len(runners) == len(cli.JOB_KINDS)
    for runner in runners:
        for node in ast.walk(runner):
            assert not isinstance(node, ast.Try), runner.name
            assert getattr(node, "id", None) != "ConfigError", runner.name


@pytest.mark.parametrize(
    "name,built",
    [
        ("affinize_mutation_sweep", {"witt_product_rule": 1, "affinize": 7}),
        ("blockcheck_concrete", {"delta_free_rule": 1}),
    ],
)
def test_a_job_builds_each_rule_once(monkeypatch, name, built):
    # the validator builds the rules whose grids it judges, and the runner
    # proves those; a mutation sweep affinizes each mutated rule once
    calls = dict.fromkeys(built, 0)
    for attr in built:
        module = block if attr == "delta_free_rule" else cli.novikov
        original = getattr(module, attr)

        def counted(*args, attr=attr, original=original):
            calls[attr] += 1
            return original(*args)

        monkeypatch.setattr(module, attr, counted)
    config = load_config(str(DATA / f"{name}.json"))
    run_job(config)
    assert calls == built


@pytest.mark.parametrize(
    "job,fields",
    [
        ("closure", {"p": "1", "q": "1", "generators": ["L[1,0]"]}),
        ("modcheck", {"p": "1", "q": "1", "family": "Ba", "a": "0", "weight_range": [0, 0]}),
        ("blockcheck", {"p": "1", "q": "1"}),
    ],
)
def test_window_label_limit_is_inclusive(tmp_path, job, fields):
    # 100 grades x 10 levels is the largest window accepted, 20 x 10 for a
    # blockcheck; validation builds no label list, so neither config is run here
    limit = cli.MAX_BLOCKCHECK_LABELS if job == "blockcheck" else cli.MAX_WINDOW_LABELS
    largest = {"grade_min": 1, "grade_max": limit // 10, "level_max": 9}
    load_config(write_config(tmp_path, {"job": job, **fields, "window": largest}))
    too_large = {"grade_min": 0, "grade_max": limit, "level_max": 0}
    message = f"{job}: field 'window' has {limit + 1} graded labels, more than the {limit} allowed"
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path, {"job": job, **fields, "window": too_large}))


@pytest.mark.parametrize(
    "name,path,bound",
    [
        ("classify_horizon_over_limit", "horizon", 500),
        ("crosscheck_series_over_limit", "horizon", 497),
        ("singular_max_level_over_limit", "max_level", 500),
        ("singular_kernel_over_limit", "horizon", "30 when max_level is over 30"),
    ],
)
def test_series_horizon_limit_is_named_before_synthesis(
    tmp_path, monkeypatch, name, path, bound
):
    def no_synthesis(*args):
        raise AssertionError("labels or series synthesized for an oversized series")

    # classify synthesizes the generator's series, the kernel jobs its labels
    monkeypatch.setattr(hweight, "labels_from_quasipolynomial", no_synthesis)
    monkeypatch.setattr(hweight, "delta_from_quasipolynomial", no_synthesis)
    payload = {case[0]: case[2] for case in EXIT_CASES}[name]
    with pytest.raises(ConfigError, match=f"field '{path}' must be <= {bound}$"):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize(
    "job,levels",
    [("classify", {}), ("crosscheck", {"max_level": 3}), ("singular", {"max_level": 500})],
)
def test_series_horizon_limit_is_inclusive(tmp_path, job, levels):
    # the last series index may be 500; validation synthesizes the series
    # (classify) or the labels, and neither config is run here
    horizon = cli.MAX_SERIES_HORIZON - levels.get("max_level", 0)
    payload = {"job": job, "p": "1/3", "q": "1", **levels, "horizon": horizon}
    payload["weight"] = {"qp": [{"poly": ["2"], "base": "1/2"}]}
    config = load_config(write_config(tmp_path, payload))
    weight = config.run.args[0]
    if job == "classify":
        assert isinstance(weight, hweight.DeltaSeries) and config.run.args[1] is not None
        weight = weight.coeffs
    assert len(weight) == cli.MAX_SERIES_HORIZON + 1
    payload["horizon"] += 1
    with pytest.raises(ConfigError, match=f"{job}: field 'horizon' must be <= {horizon}$"):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("job", ["singular", "crosscheck"])
def test_kernel_side_limit_is_inclusive(tmp_path, job):
    # either side may pass the bound while the other stays at it
    side = cli.MAX_KERNEL_SIDE
    payload = {"job": job, "p": "2/3", "q": "-5/7"}
    payload["weight"] = {"qp": [{"poly": ["1"], "base": "89/97"}]}
    for max_level, horizon in ((side, 400), (400, side)):
        payload.update(max_level=max_level, horizon=horizon)
        config = load_config(write_config(tmp_path, payload))
        assert config.run.args[2:] == (max_level, horizon)
    payload.update(max_level=side + 1, horizon=side + 1)
    with pytest.raises(ConfigError, match=f"{job}: field 'horizon' must be <= {side} when"):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize(
    "name,message",
    [
        (
            "closure_generator_zero_denominator",
            "closure: field 'generators[0]': cannot parse element term '1/0*L[1,0]'",
        ),
        (
            "closure_membership_zero_denominator",
            "closure: field 'membership[1]': cannot parse element term '3/00*L[3,0]'",
        ),
        (
            "closure_generator_outside_window",
            "closure: field 'generators[1]': label L[9,0] lies outside the closure window",
        ),
        (
            "closure_membership_outside_window",
            "closure: field 'membership[1]': label c lies outside the closure window",
        ),
        ("closure_membership_not_a_list", "closure: field 'membership' must be a list"),
        (
            "closure_generator_dangling_sign",
            "closure: field 'generators[1]': element 'L[1,0] + ' ends in a sign with no term",
        ),
        ("affinize_mutations_over_limit", "affinize: field 'mutations.count' must be <= 100"),
        (
            "axioms_table_grid_over_limit",
            "axioms: field 'grades' has 51 values, more than the 50 allowed",
        ),
        (
            "blockcheck_jacobi_grid_over_limit",
            "blockcheck: field 'jacobi_levels' has 51 values, more than the 50 allowed",
        ),
        (
            "blockcheck_window_over_limit",
            "blockcheck: field 'window' has 201 graded labels, more than the 200 allowed",
        ),
        (
            "modcheck_weight_range_over_limit",
            "modcheck: field 'weight_range' spans 202 weights, more than the 201 allowed",
        ),
        (
            "modcheck_pair_weights_over_limit",
            "modcheck: fields 'window' and 'weight_range' give 1000000 label pairs x 2 weights, "
            "more than the 1000000 allowed",
        ),
        (
            "blockcheck_short_cocycle_grid",
            "blockcheck: field 'cocycle_grades': grade grid needs at least 5 distinct values, "
            "got 2",
        ),
        # the identity grids are sized by the rules the job proves, built at load
        (
            "axioms_short_grid",
            "axioms: field 'grades': grade grid needs at least 3 distinct values, got 2",
        ),
        (
            "axioms_perturbed_short_grid",
            "axioms: field 'grades': grade grid needs at least 5 distinct values, got 3",
        ),
        (
            "affinize_short_level_grid",
            "affinize: field 'levels': level grid needs at least 3 distinct values, got 2",
        ),
        (
            "blockcheck_short_jacobi_grid",
            "blockcheck: field 'jacobi_grades': grade grid needs at least 3 distinct values, "
            "got 1",
        ),
        ("axioms_duplicate_grades", "axioms: field 'grades' values must be distinct"),
        ("axioms_table_duplicate_pair", "axioms: field 'table[1]' duplicates pair (0, 1)"),
        (
            "closure_reversed_window",
            "closure: field 'window' is invalid: grade_min must not exceed grade_max",
        ),
        (
            "modcheck_reversed_weight_range",
            "modcheck: field 'weight_range' must be [lo, hi] with lo <= hi",
        ),
        ("modcheck_unknown_family", "modcheck: field 'family' must be one of Aab, Aa, Ba"),
        ("modcheck_aab_without_b", "modcheck: missing required field 'b'"),
        ("modcheck_b_outside_aab", "modcheck: field 'b' applies only to the Aab family"),
        (
            "axioms_unknown_perturb_target",
            "axioms: field 'perturb.target' must be one of main, shift",
        ),
        (
            "axioms_negative_perturb_exponent",
            "axioms: field 'perturb.exponents' must be a list of 2 integers >= 0",
        ),
        ("axioms_fractional_theta", "axioms: field 'theta' must be an integer"),
        ("closure_negative_level_max", "closure: field 'window.level_max' must be >= 0"),
        ("config_not_an_object", "config must be a JSON object"),
        ("config_not_utf8", "config is not UTF-8: byte 9 is invalid"),
        ("config_nested_too_deep", "config nests its arrays or objects too deeply to parse"),
        ("config_integer_too_long", "config has an integer literal of over 4300 digits"),
    ],
)
def test_rejected_inputs_are_named_before_any_work(tmp_path, name, message):
    payload = {case[0]: case[2] for case in EXIT_CASES}[name]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(write_config(tmp_path, payload))


def test_work_limits_are_inclusive(tmp_path):
    # each bound admits its own value; validation runs nothing, so neither is run
    cases = {case[0]: case[2] for case in EXIT_CASES}
    at_limit = [
        {**cases["affinize_mutations_over_limit"], "mutations": {"count": 100, "seed": 0}},
        {**cases["axioms_table_grid_over_limit"], "grades": [str(k) for k in range(50)]},
        {**cases["blockcheck_jacobi_grid_over_limit"], "jacobi_levels": list(map(str, range(50)))},
        {
            **cases["blockcheck_window_over_limit"],
            "window": {"grade_min": 1, "grade_max": 200, "level_max": 0},
        },
        {**cases["modcheck_weight_range_over_limit"], "weight_range": [-100, 100]},
    ]
    for payload in at_limit:
        load_config(write_config(tmp_path, payload))


def test_pair_weight_limit_is_inclusive(tmp_path):
    # 100 labels (grades -4..5, levels 0..9): 100^2 label pairs x 100 weights
    # is the limit; validation runs nothing, so neither config is run
    payload = {case[0]: case[2] for case in EXIT_CASES}["modcheck_pair_weights_over_limit"]
    payload = {**payload, "window": {"grade_min": -4, "grade_max": 5, "level_max": 9}}
    assert 100**2 * 100 == cli.MAX_PAIR_WEIGHTS
    load_config(write_config(tmp_path, {**payload, "weight_range": [0, 99]}))
    with pytest.raises(ConfigError, match="give 10000 label pairs x 101 weights, more than"):
        load_config(write_config(tmp_path, {**payload, "weight_range": [0, 100]}))


def test_element_errors_name_their_field(tmp_path, capsys):
    payload = {
        "job": "closure",
        "p": "1",
        "q": "1",
        "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
        "generators": ["L[1,0]", 5],
    }
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert "closure: field 'generators[1]'" in capsys.readouterr().err
    payload["generators"] = ["L[1,0]"]
    payload["window"] = {"grade_min": 0, "level_max": 0}
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: closure: missing required field 'window.grade_max'")
    assert err.count("closure:") == 1


CONFIGS = sorted(
    path
    for folder in (GOLDEN, DATA)
    for path in folder.glob("*.json")
    if not path.name.endswith(".report.json")
)
BAD_VALUES = {"true": True, "float": 1.5, "object": {"x": 1}}


def nested_fields(value, keys=()):
    """The keys of every field below the top level of a config, through
    objects and lists of objects: ("weight", "qp", 0, "base") and so on."""
    if isinstance(value, dict):
        for key, inner in value.items():
            if keys:
                yield keys + (key,)
            yield from nested_fields(inner, keys + (key,))
    elif isinstance(value, list):
        for k, inner in enumerate(value):
            if isinstance(inner, dict):
                yield from nested_fields(inner, keys + (k,))


def field_path(keys) -> str:
    """The path the CLI names a field by, such as `weight.qp[0].base`."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)[1:]


# every top-level field of every archived config with three wrong-type
# values, and every nested field with one: `true` is no integer, rational,
# string, list or object the CLI accepts
FIELD_CASES = [
    (path, (name,), bad)
    for path in CONFIGS
    for name in json.loads(path.read_text())
    if name != "job"
    for bad in BAD_VALUES
]
FIELD_CASES += [
    (path, keys, "true") for path in CONFIGS for keys in nested_fields(json.loads(path.read_text()))
]


@pytest.mark.parametrize(
    "path,keys,bad",
    FIELD_CASES,
    ids=[f"{path.stem}-{field_path(keys)}-{bad}" for path, keys, bad in FIELD_CASES],
)
def test_malformed_field_exits_2_and_is_named(tmp_path, capsys, path, keys, bad):
    # a field replaced by a value of the wrong type: the error names the
    # field or a path under it
    payload = json.loads(path.read_text())
    parent = payload
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = BAD_VALUES[bad]
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    name = field_path(keys)
    assert any(f"'{name}{end}" in err for end in ("'", ".", "[")), err


def test_crosscheck_single_coefficient_names_horizon(tmp_path, capsys):
    payload = {
        "job": "crosscheck",
        "p": "0",
        "q": "1",
        "max_level": 0,
        "horizon": 0,
        "weight": {"labels": ["1"]},
    }
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert "'horizon'" in capsys.readouterr().err
    payload["job"] = "singular"  # the kernel route needs no series: a verdict
    assert main(["--config", write_config(tmp_path, payload)]) == 1
    capsys.readouterr()


def test_seed_flag_requires_mutations(tmp_path, capsys):
    path = write_config(tmp_path, {"job": "affinize", "p": "2", "mu": "1", "theta": 1, "q": "1"})
    assert main(["--config", path, "--seed", "3"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_seed_flag_replaces_mutations_seed_before_validation(tmp_path, capsys):
    payload = {"job": "affinize", "p": "2", "q": "1", "mutations": {"count": 1}}
    path = write_config(tmp_path, payload)
    assert main(["--config", path]) == 2
    assert "'mutations.seed'" in capsys.readouterr().err
    for seed in (3, 5):
        config = load_config(path, seed=seed)
        assert config.settings["mutations"] == {"count": 1, "seed": seed}
        assert run_job(config).results["mutations"]["seed"] == seed
    assert main(["--config", path, "--seed", "5", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["mutations"]["seed"] == 5


def test_threads_flag_is_gone(tmp_path, capsys):
    path = write_config(tmp_path, classify_payload())
    with pytest.raises(SystemExit) as exc:
        main(["--config", path, "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_an_unknown_format_is_refused_by_the_parser(tmp_path, capsys):
    # the parser's choices are the one check: emit_report writes machine, or else text
    path = write_config(tmp_path, classify_payload())
    with pytest.raises(SystemExit) as exc:
        main(["--config", path, "--format", "json"])
    assert exc.value.code == 2
    assert "invalid choice: 'json'" in capsys.readouterr().err


def test_debug_flag_prints_the_traceback_of_an_internal_error(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, classify_payload())

    def broken_run_job(config):
        raise RuntimeError("broken run")

    monkeypatch.setattr(cli, "run_job", broken_run_job)
    out = tmp_path / "report.json"
    for flags in ([], ["--debug"]):
        assert main(["--config", path, "--out", str(out), *flags]) == 3
        captured = capsys.readouterr()
        # exit 3 writes no report, with the flag or without it
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("internal error: RuntimeError: broken run\n")
        assert ("Traceback (most recent call last)" in captured.err) == bool(flags)
        assert ("in broken_run_job" in captured.err) == bool(flags)


def test_debug_flag_leaves_reports_unchanged(tmp_path, capsys):
    path = write_config(tmp_path, classify_payload())
    reports = []
    for flags in ([], ["--debug"]):
        out = tmp_path / f"report{len(flags)}.json"
        assert main(["--config", path, "--format", "machine", *flags]) == 0
        stdout = capsys.readouterr().out
        assert main(["--config", path, "--format", "machine", "--out", str(out), *flags]) == 0
        capsys.readouterr()
        reports.append((stdout, out.read_bytes()))
    assert reports[0] == reports[1]
    assert reports[0][0].encode() == reports[0][1]


@pytest.mark.parametrize("name", ["blockcheck_concrete", "blockcheck_symbolic"])
def test_blockcheck_builds_the_delta_free_term_once(monkeypatch, name):
    # the Virasoro, Laurent and delta-free Jacobi checks share one build
    builds = []
    build = block._delta_free_terms

    def counted(params):
        builds.append(params)
        return build(params)

    monkeypatch.setattr(block, "_delta_free_terms", counted)
    assert run_job(load_config(str(DATA / f"{name}.json"))).positive
    assert len(builds) == 1


def test_failure_reports_carry_witness_and_residual(tmp_path):
    payload = {
        "job": "axioms",
        "p": "2",
        "theta": 1,
        "grades": ["-1", "0", "1"],
        "perturb": {"target": "main", "exponents": [1, 0], "delta": "1"},
    }
    report = run_job(load_config(write_config(tmp_path, payload)))
    failing = report.results["right_commutativity"]
    assert failing["verdict"] == "fails"
    assert failing["witness"] is not None
    assert failing["residual"] not in (None, "0")


def test_absent_certificate_serializes_as_explicit_null(tmp_path):
    factorials = [str(__import__("math").factorial(k)) for k in range(13)]
    payload = classify_payload(
        horizon=12, weight={"labels": factorials, "central": "0"}
    )
    report = run_job(load_config(write_config(tmp_path, payload)))
    document = json.loads(emit_report(report, "machine"))
    assert "certificate" in document["results"]
    assert document["results"]["certificate"] is None


def test_unwritable_output_path_is_input_error(tmp_path, capsys):
    path = write_config(tmp_path, classify_payload())
    status = main(["--config", path, "--out", str(tmp_path / "no" / "dir" / "x.json")])
    assert status == 2
    assert "cannot write" in capsys.readouterr().err


def test_cli_writes_report_file(tmp_path, capsys):
    config_path = write_config(tmp_path, classify_payload())
    out_path = tmp_path / "report.json"
    assert main(["--config", config_path, "--format", "machine", "--out", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "# elapsed:" in captured.err
    document = json.loads(out_path.read_text())
    assert document["positive"] is True
    assert document["results"]["verdict"] == "quasifinite"


def archived_report(config: Path) -> str:
    return config.with_name(f"{config.stem}.report.json").read_text()


@pytest.mark.parametrize("config", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_subprocess_round_trip_matches_archived_report(config):
    # the path of a batch run, where the job's kind runs the modules it reads
    # for the first time
    result = subprocess.run(
        [sys.executable, "-m", "blocklie.cli", "--config", str(config), "--format", "machine"],
        capture_output=True,
        text=True,
    )
    expected = archived_report(config)
    assert result.stdout == expected
    assert result.returncode == (0 if json.loads(expected)["positive"] else 1)
    assert "# elapsed:" in result.stderr


def test_archived_reports_hold_17_positive_and_8_negative_verdicts():
    verdicts = [json.loads(archived_report(config))["positive"] for config in CONFIGS]
    assert (verdicts.count(True), verdicts.count(False)) == (17, 8)


@pytest.mark.parametrize(
    "name", ["classify_qp", "axioms_witt", "crosscheck_p0"]
)
def test_golden_reports_reproduce_byte_identically(name):
    config = load_config(str(GOLDEN / f"{name}.json"))
    report = run_job(config)
    expected = (GOLDEN / f"{name}.report.json").read_text()
    assert emit_report(report, "machine") == expected
    assert report.positive


@pytest.mark.parametrize("name", ["crosscheck_p2", "crosscheck_phalf"])
def test_archived_crosscheck_disagreement_data(name):
    # the p != 0 regime: the recurrence route succeeds, the degree-1 singular
    # route does not; the report records the disagreement as data
    config = load_config(str(DATA / f"{name}.json"))
    report = run_job(config)
    expected = (DATA / f"{name}.report.json").read_text()
    assert emit_report(report, "machine") == expected
    assert report.results["delta_route"] is True
    assert report.results["kernel_route"] is False
    assert not report.positive


@pytest.mark.parametrize(
    "name,expected",
    [
        ("classify_dense_h60", 1),
        ("classify_qp_deg6_h40", 0),
        ("crosscheck_level0", 0),
        ("classify_qp_mixed_den_h60", 0),
        ("crosscheck_pthird_singular", 1),
    ],
)
def test_large_horizon_reports_reproduce_byte_identically(name, expected, capsys):
    # archived from the degree-by-degree recurrence search that preceded
    # Berlekamp-Massey: dense labels with no recurrence up to horizon 60, a
    # degree-6 annihilator at horizon 40, and a recurrence cap of 0; and from
    # the Fraction Berlekamp-Massey and per-term Fraction series: bases with
    # coprime denominators 3, 4 and 5 at horizon 60, and a p = 1/3 cross-check
    # on rational bases whose series vanishes at its singular index k = 1
    config = str(DATA / f"{name}.json")
    assert main(["--config", config, "--format", "machine"]) == expected
    assert capsys.readouterr().out == (DATA / f"{name}.report.json").read_text()


@pytest.mark.parametrize(
    "name",
    [
        "closure_block_dim78",
        "closure_affinized_dim48",
        "closure_dense_w5",
        "closure_cocycle_pair",
        "closure_block_p0_dense_pair",
    ],
)
def test_archived_closure_reports_reproduce_byte_identically(name, capsys):
    # archived from the naive closure loop, which bracketed every pair of rows
    # in every round: a dim-78 block closure (membership queries include c)
    # and a dim-48 affinized closure of two dense generators; from the
    # closure that computed every pair's bracket before truncating it: a
    # dim-58 block closure of two dense multi-term generators whose
    # intermediate rows reach 3,469 bits; and from the guided pass that formed
    # a basis pair's product again for each further column of S it found, two
    # closures below their support closure S: the cocycle pair L[2,0],
    # L[-2,0] (dim 3, |S| = 4, c a member only beside L[0,0]) and a dense
    # pair at p = 0 (dim 14, |S| = 19)
    config = str(DATA / f"{name}.json")
    assert main(["--config", config, "--format", "machine"]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.report.json").read_text()


@pytest.mark.parametrize(
    "name,expected",
    [
        ("axioms_perturbed_both_fail", 1),
        ("axioms_symbolic_perturbed", 1),
        ("affinize_mutation_sweep", 0),
        ("affinize_symbolic_sweep", 0),
        ("modcheck_central_one", 1),
        ("blockcheck_symbolic", 0),
        ("blockcheck_concrete", 0),
        ("axioms_table_fails", 1),
        ("blockcheck_window_origin", 0),
        ("modcheck_central_one_narrow", 0),
    ],
)
def test_archived_verify_reports_reproduce_byte_identically(name, expected, capsys):
    # archived from the full-product grid scans: a perturbed rule failing both
    # Novikov axioms past the first grid triple on an unsorted grid, the same
    # with symbolic p and mu, a six-entry mutation sweep, and a module whose
    # central element acts by 1; from the hand-written blockcheck loops:
    # symbolic p and q, and concrete rationals, each on unsorted rational grids;
    # from the scan-only grid checks: symbolic p, mu and q on rational
    # grades and levels, with mutations that hold and fail; and a table
    # product failing both Novikov axioms past the first triple.  Two record
    # positives that nothing proves, to be changed on purpose once every
    # positive verdict is a proof: a blockcheck on the one-label window
    # L[0,0], labelled holds_universally, and the central-one module narrowed
    # to grades -1..1, where the window scan holds although the axiom fails
    # at grade 2
    config = str(DATA / f"{name}.json")
    assert main(["--config", config, "--format", "machine"]) == expected
    assert capsys.readouterr().out == (DATA / f"{name}.report.json").read_text()


@pytest.mark.parametrize(
    "defect,fails",
    [
        (partial(perturbed_coefficient, lambda x, y: Fraction(1, 3)), "Virasoro embedding"),
        # vanishes at i = j = 0, so the Virasoro proof holds
        (
            partial(perturbed_coefficient, lambda x, y: -2 * (x.level + y.level)),
            "Laurent realization",
        ),
        # the cocycle check runs first
        (partial(patched_cocycle, X**2 / 12), "cocycle Jacobi"),
    ],
    ids=["constant", "vanishing_at_level_zero", "quadratic_cocycle"],
)
def test_a_failed_block_proof_exits_3_and_names_it(defect, fails, capsys):
    # the cocycle Jacobi, Virasoro and Laurent checks are theorems of every
    # B(p,q), so a failed proof is a defect of the program's own bracket: an
    # internal error, never a verdict with a witness
    fails = f"{fails} proof fails"
    config = str(DATA / "blockcheck_concrete.json")
    with defect():
        assert main(["--config", config, "--format", "machine"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"internal error: ValueError: the {fails}")
        assert "Traceback" not in captured.err
        assert main(["--config", config, "--format", "machine", "--debug"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: ValueError: the {fails}")
        assert "Traceback (most recent call last)" in err
    assert main(["--config", config, "--format", "machine"]) == 0
    assert capsys.readouterr().out == (DATA / "blockcheck_concrete.report.json").read_text()


def test_singular_job_negative_when_kernel_empty(tmp_path):
    payload = {
        "job": "singular",
        "p": "2",
        "q": "1",
        "max_level": 1,
        "horizon": 4,
        "weight": {"labels": ["1", "4", "9", "17", "31", "2"], "central": "0"},
    }
    config = load_config(write_config(tmp_path, payload))
    report = run_job(config)
    assert report.results["kernel_dimension"] == 0
    assert not report.positive


def test_closure_job_membership_and_echo(tmp_path):
    payload = {
        "job": "closure",
        "p": "1",
        "q": "1",
        "window": {"grade_min": 0, "grade_max": 6, "level_max": 0},
        "generators": ["L[1,0]", "L[2,0]"],
        "membership": ["L[4,0]", "c"],
    }
    config = load_config(write_config(tmp_path, payload))
    report = run_job(config)
    assert report.results["dimension"] == 6
    assert report.results["membership"] == [
        {"element": "L[4,0]", "member": True},
        {"element": "c", "member": False},
    ]
    assert report.results["basis_by_grade"]["3"] == ["L[3,0]"]


def test_zero_closure_prints_an_empty_basis_in_text(tmp_path, capsys):
    # generators that are all "0" span nothing: the basis is an empty mapping
    payload = {
        "job": "closure",
        "p": "1",
        "q": "1",
        "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
        "generators": ["0"],
    }
    assert main(["--config", write_config(tmp_path, payload), "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  dimension: 0" in lines
    assert "  basis_by_grade: {}" in lines


def test_zero_closure_prints_an_empty_basis_in_machine_format(tmp_path, capsys):
    # the machine writer's empty mapping, as json.dumps writes it
    payload = {
        "job": "closure",
        "p": "1",
        "q": "1",
        "window": {"grade_min": 0, "grade_max": 4, "level_max": 0},
        "generators": ["0"],
    }
    assert main(["--config", write_config(tmp_path, payload), "--format", "machine"]) == 0
    document = capsys.readouterr().out
    assert '    "basis_by_grade": {},\n' in document
    assert document == json.dumps(json.loads(document), sort_keys=True, indent=2) + "\n"


def test_modcheck_central_perturbation_witness(tmp_path):
    payload = {
        "job": "modcheck",
        "p": "3",
        "q": "1",
        "family": "Aab",
        "a": "1/2",
        "b": "0",
        "window": {"grade_min": -2, "grade_max": 2, "level_max": 1},
        "weight_range": [-2, 2],
        "central_value": "1",
    }
    config = load_config(write_config(tmp_path, payload))
    report = run_job(config)
    assert not report.positive
    assert report.results["module_axiom"]["witness"][:4] == [2, -2, 0, 0]
