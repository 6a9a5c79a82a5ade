"""Batch front end: one JSON job config in, one deterministic report out.

A config selects exactly one job kind and its inputs; every default the run
resolves is echoed back into the report, so the report is a pure function of
the config (randomized jobs require an explicit seed).  The machine format is
JSON with sorted keys and all rationals rendered as "a/b" strings; the text
format is line-oriented.  Both are byte-deterministic for a given config;
wall-clock timing goes to stderr only.

Exit status: 0 positive verdict, 1 negative verdict, 2 input error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from . import block, engine, hweight, intermediate, novikov
from .engine import CENTRAL, Element, Graded, Verdict, Window
from .scalars import PolyRing, accumulate, format_rational, parse_rational

JOB_KINDS = (
    "axioms",
    "affinize",
    "blockcheck",
    "classify",
    "singular",
    "crosscheck",
    "closure",
    "modcheck",
)

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid job configuration (parse or semantic)."""


@dataclass(frozen=True)
class JobConfig:
    """One validated job: its kind plus the fully resolved settings echo."""

    kind: str
    settings: dict


@dataclass(frozen=True)
class Report:
    job: str
    config: dict
    results: dict
    positive: bool
    elapsed_seconds: float


# -- config loading ----------------------------------------------------------


def _field(raw: dict, job: str, name: str, default=_REQUIRED):
    if name in raw:
        return raw[name]
    if default is _REQUIRED:
        raise ConfigError(f"{job}: missing required field '{name}'")
    return default


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not numbers here
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(raw: dict, job: str, name: str, default=_REQUIRED, minimum=None):
    value = _field(raw, job, name, default)
    if not _is_int(value):
        raise ConfigError(f"{job}: field '{name}' must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{job}: field '{name}' must be >= {minimum}")
    return value


def _rational_field(raw: dict, job: str, name: str, default=_REQUIRED) -> Fraction:
    value = _field(raw, job, name, default)
    if isinstance(value, Fraction):
        return value
    try:
        return parse_rational(value)
    except (ValueError, TypeError):
        raise ConfigError(
            f"{job}: field '{name}' must be a rational like \"3/4\" (got {value!r})"
        ) from None


def _rational_list(raw_list, job: str, name: str) -> list[Fraction]:
    if not isinstance(raw_list, list) or not raw_list:
        raise ConfigError(f"{job}: field '{name}' must be a nonempty list")
    out = []
    for k, value in enumerate(raw_list):
        try:
            out.append(parse_rational(value))
        except (ValueError, TypeError):
            raise ConfigError(
                f"{job}: field '{name}[{k}]' must be a rational (got {value!r})"
            ) from None
    return out


def _window_field(raw: dict, job: str, name: str = "window", default=_REQUIRED) -> Window:
    value = _field(raw, job, name, default)
    if isinstance(value, Window):
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{job}: field '{name}' must be an object")
    try:
        window = Window(
            _int_field(value, job, "grade_min"),
            _int_field(value, job, "grade_max"),
            _int_field(value, job, "level_max", minimum=0),
        )
    except ValueError as exc:
        raise ConfigError(f"{job}: field '{name}': {exc}") from None
    return window


def _echo_window(window: Window) -> dict:
    return {
        "grade_min": window.grade_min,
        "grade_max": window.grade_max,
        "level_max": window.level_max,
    }


def _parameters(raw: dict, job: str, names: Sequence[str], *, symbolic_ok, defaults=None):
    """Resolve algebra parameters to Fractions or shared-ring symbols.

    Returns (echo dict, scalars dict).  The literal string "symbolic" keeps a
    parameter as a formal symbol; all symbolic parameters share one ring.
    """
    defaults = defaults or {}
    symbolic = []
    for name in names:
        value = _field(raw, job, name, defaults.get(name, _REQUIRED))
        if value == "symbolic":
            if name not in symbolic_ok:
                raise ConfigError(f"{job}: field '{name}' cannot be symbolic here")
            symbolic.append(name)
    ring = PolyRing(*symbolic) if symbolic else None
    echo: dict[str, Any] = {}
    scalars: dict[str, Any] = {}
    for name in names:
        value = _field(raw, job, name, defaults.get(name, _REQUIRED))
        if value == "symbolic":
            echo[name] = "symbolic"
            scalars[name] = ring.var(name)
        else:
            rational = _rational_field(raw, job, name, defaults.get(name, _REQUIRED))
            echo[name] = format_rational(rational)
            scalars[name] = rational
    return echo, scalars


def _block_params(scalars: dict, job: str) -> block.BlockParams:
    try:
        return block.BlockParams(p=scalars["p"], q=scalars["q"])
    except ValueError as exc:
        raise ConfigError(f"{job}: {exc}") from None


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>[+-]?\d+(?:/\d+)?)\*?)?(?:(?P<c>c)|L\[(?P<g>-?\d+),(?P<l>-?\d+)\])$"
)


def _split_terms(text: str) -> list[str]:
    """Split a sum at +/- signs outside brackets, keeping signs with terms."""
    chunks = []
    current = ""
    depth = 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0 and current:
            chunks.append(current)
            current = ch if ch == "-" else ""
        else:
            current += ch
    if current:
        chunks.append(current)
    return chunks


def parse_element(text: str) -> Element:
    """Parse sums like "2*L[1,0] - 1/3*L[-2,4] + c" into an Element."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(f"empty element text: {text!r}")
    terms = []
    for chunk in _split_terms(text.replace(" ", "")):
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign, chunk = Fraction(-1), chunk[1:]
        match = _TERM_RE.match(chunk)
        if not match:
            raise ConfigError(
                f"cannot parse element term {chunk!r} in {text!r}; expected "
                "rational*L[grade,level] or rational*c"
            )
        coeff = sign * Fraction(match.group("coeff") or 1)
        if match.group("c"):
            index = CENTRAL
        else:
            index = Graded(int(match.group("g")), int(match.group("l")))
        terms.append((index, coeff))
    return Element(accumulate({}, terms))


def _weight_field(raw: dict, job: str, params: block.BlockParams, horizon: int):
    """Parse the weight spec; returns (echo, Weight)."""
    value = _field(raw, job, "weight")
    if not isinstance(value, dict):
        raise ConfigError(f"{job}: field 'weight' must be an object")
    central = _rational_field(value, job, "central", default=Fraction(0))
    if "labels" in value and "qp" in value:
        raise ConfigError(f"{job}: weight needs exactly one of 'labels' or 'qp'")
    if "labels" in value:
        labels = _rational_list(value["labels"], job, "weight.labels")
        if len(labels) <= horizon:
            raise ConfigError(
                f"{job}: weight.labels must reach horizon {horizon} "
                f"({horizon + 1} labels required, got {len(labels)})"
            )
        weight = hweight.Weight.from_labels(labels, central)
        echo = {
            "labels": [format_rational(v) for v in labels],
            "central": format_rational(central),
        }
        return echo, weight
    if "qp" not in value:
        raise ConfigError(f"{job}: weight needs 'labels' or 'qp'")
    terms_raw = value["qp"]
    if not isinstance(terms_raw, list):
        raise ConfigError(f"{job}: field 'weight.qp' must be a list of terms")
    terms = []
    for k, term in enumerate(terms_raw):
        if not isinstance(term, dict):
            raise ConfigError(f"{job}: weight.qp[{k}] must be an object")
        coeffs = _rational_list(_field(term, job, "poly"), job, f"weight.qp[{k}].poly")
        base = _rational_field(term, job, "base")
        terms.append((coeffs, base))
    qp = hweight.QuasiPolynomial.of(terms)
    try:
        synthesis = hweight.labels_from_quasipolynomial(qp, params, horizon)
    except hweight.UnrealizableError as exc:
        raise ConfigError(f"{job}: weight.qp unrealizable: {exc}") from None
    weight = hweight.Weight(
        labels=synthesis.weight.labels, qp=qp, central_label=central
    )
    echo = {
        "qp": [
            {"poly": [format_rational(c) for c in coeffs], "base": format_rational(b)}
            for coeffs, b in qp.terms
        ],
        "central": format_rational(central),
        "singular_indices": list(synthesis.singular),
    }
    return echo, weight


def load_config(path: str) -> JobConfig:
    """Read and validate a config file; all defaults are resolved here."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kind = raw.get("job")
    if kind not in JOB_KINDS:
        raise ConfigError(
            f"field 'job' must be one of {', '.join(JOB_KINDS)} (got {kind!r})"
        )
    validator = _VALIDATORS[kind]
    return JobConfig(kind, validator(raw))


def _grid_field(raw, job, name, default):
    values = raw.get(name, default)
    rationals = _rational_list(values, job, name)
    if len(set(rationals)) != len(rationals):
        raise ConfigError(f"{job}: field '{name}' values must be distinct")
    return rationals


def _echo_grid(values) -> list[str]:
    return [format_rational(v) for v in values]


def _validate_axioms(raw: dict) -> dict:
    job = "axioms"
    settings: dict[str, Any] = {}
    if "table" in raw:
        # extensional product on a small index window; universality is off
        for name in ("p", "mu", "theta", "perturb"):
            if name in raw:
                raise ConfigError(f"{job}: '{name}' does not apply in table mode")
        entries_raw = raw["table"]
        if not isinstance(entries_raw, list) or not entries_raw:
            raise ConfigError(f"{job}: field 'table' must be a nonempty list")
        table_echo = []
        entries: dict[tuple[int, int], Element] = {}
        for k, row in enumerate(entries_raw):
            if not isinstance(row, dict):
                raise ConfigError(f"{job}: table[{k}] must be an object")
            a = _int_field(row, job, "a")
            b = _int_field(row, job, "b")
            if (a, b) in entries:
                raise ConfigError(f"{job}: table[{k}] duplicates pair ({a}, {b})")
            out_raw = _field(row, job, "out")
            if not isinstance(out_raw, list):
                raise ConfigError(f"{job}: table[{k}].out must be a list")
            terms = []
            out_echo = []
            for t, term in enumerate(out_raw):
                if not isinstance(term, dict):
                    raise ConfigError(f"{job}: table[{k}].out[{t}] must be an object")
                grade = _int_field(term, job, "grade")
                coeff = _rational_field(term, job, "coeff")
                terms.append((Graded(grade, 0), coeff))
                out_echo.append({"grade": grade, "coeff": format_rational(coeff)})
            entries[(a, b)] = Element(accumulate({}, terms))
            table_echo.append({"a": a, "b": b, "out": out_echo})
        settings["table"] = table_echo
        settings["_table"] = entries
        default_grid = sorted({str(k) for pair in entries for k in pair})
        grades = _grid_field(raw, job, "grades", default_grid)
        settings["grades"] = _echo_grid(grades)
        settings["_grades"] = grades
        settings["_scalars"] = {}
        return settings
    echo, scalars = _parameters(
        raw, job, ("p", "mu"), symbolic_ok=("p", "mu"), defaults={"mu": "0"}
    )
    settings.update(echo)
    settings["theta"] = _int_field(raw, job, "theta", default=0)
    grades = _grid_field(raw, job, "grades", ["-2", "-1", "0", "1", "2"])
    settings["grades"] = _echo_grid(grades)
    settings["_grades"] = grades
    perturb = raw.get("perturb")
    if perturb is not None:
        if not isinstance(perturb, dict):
            raise ConfigError(f"{job}: field 'perturb' must be an object")
        target = _field(perturb, job, "target")
        if target not in ("main", "shift"):
            raise ConfigError(f"{job}: perturb.target must be 'main' or 'shift'")
        exponents = _field(perturb, job, "exponents")
        if (
            not isinstance(exponents, list)
            or len(exponents) != 2
            or not all(_is_int(e) and e >= 0 for e in exponents)
        ):
            raise ConfigError(f"{job}: perturb.exponents must be two integers >= 0")
        delta = _rational_field(perturb, job, "delta")
        settings["perturb"] = {
            "target": target,
            "exponents": exponents,
            "delta": format_rational(delta),
        }
        settings["_delta"] = delta
    settings["_scalars"] = scalars
    return settings


def _validate_affinize(raw: dict) -> dict:
    job = "affinize"
    echo, scalars = _parameters(
        raw,
        job,
        ("p", "mu", "q"),
        symbolic_ok=("p", "mu", "q"),
        defaults={"mu": "0"},
    )
    settings = dict(echo)
    settings["theta"] = _int_field(raw, job, "theta", default=0)
    grades = _grid_field(raw, job, "grades", ["-2", "-1", "0", "1", "2"])
    levels = _grid_field(raw, job, "levels", ["0", "1", "2"])
    settings["grades"] = _echo_grid(grades)
    settings["levels"] = _echo_grid(levels)
    settings["_grades"] = grades
    settings["_levels"] = levels
    mutations = raw.get("mutations")
    if mutations is not None:
        if not isinstance(mutations, dict):
            raise ConfigError(f"{job}: field 'mutations' must be an object")
        count = _int_field(mutations, job, "count", minimum=1)
        if "seed" not in mutations:
            raise ConfigError(
                f"{job}: mutations require an explicit 'seed' (determinism contract)"
            )
        seed = _int_field(mutations, job, "seed", minimum=0)
        settings["mutations"] = {"count": count, "seed": seed}
    settings["_scalars"] = scalars
    return settings


def _validate_blockcheck(raw: dict) -> dict:
    job = "blockcheck"
    echo, scalars = _parameters(raw, job, ("p", "q"), symbolic_ok=("p", "q"))
    settings = dict(echo)
    _block_params(scalars, job)  # rejects q = 0 early
    window = _window_field(raw, job)
    settings["window"] = _echo_window(window)
    cocycle = _grid_field(raw, job, "cocycle_grades", ["-2", "-1", "0", "1", "2"])
    settings["cocycle_grades"] = _echo_grid(cocycle)
    jacobi_grades = _grid_field(raw, job, "jacobi_grades", ["-1", "0", "1"])
    jacobi_levels = _grid_field(raw, job, "jacobi_levels", ["0", "1", "2"])
    settings["jacobi_grades"] = _echo_grid(jacobi_grades)
    settings["jacobi_levels"] = _echo_grid(jacobi_levels)
    settings["_window"] = window
    settings["_cocycle_grades"] = cocycle
    settings["_jacobi_grades"] = jacobi_grades
    settings["_jacobi_levels"] = jacobi_levels
    settings["_scalars"] = scalars
    return settings


def _validate_classify(raw: dict) -> dict:
    job = "classify"
    echo, scalars = _parameters(raw, job, ("p", "q"), symbolic_ok=())
    settings = dict(echo)
    params = _block_params(scalars, job)
    horizon = _int_field(raw, job, "horizon", minimum=1)
    settings["horizon"] = horizon
    weight_echo, weight = _weight_field(raw, job, params, horizon)
    settings["weight"] = weight_echo
    settings["_scalars"] = scalars
    settings["_weight"] = weight
    return settings


def _validate_kernel_shaped(raw: dict, job: str) -> dict:
    # singular and crosscheck share their input shape
    echo, scalars = _parameters(raw, job, ("p", "q"), symbolic_ok=())
    settings = dict(echo)
    params = _block_params(scalars, job)
    max_level = _int_field(raw, job, "max_level", minimum=0)
    # the recurrence route of crosscheck needs at least two series coefficients
    horizon_minimum = 1 if job == "crosscheck" and max_level == 0 else 0
    horizon = _int_field(raw, job, "horizon", minimum=horizon_minimum)
    settings["max_level"] = max_level
    settings["horizon"] = horizon
    weight_echo, weight = _weight_field(raw, job, params, max_level + horizon)
    settings["weight"] = weight_echo
    settings["_scalars"] = scalars
    settings["_weight"] = weight
    return settings


def _validate_closure(raw: dict) -> dict:
    job = "closure"
    algebra = _field(raw, job, "algebra", default="block")
    if algebra not in ("block", "affinized"):
        raise ConfigError(f"{job}: field 'algebra' must be 'block' or 'affinized'")
    names = ("p", "q") if algebra == "block" else ("p", "q", "mu")
    echo, scalars = _parameters(
        raw, job, names, symbolic_ok=(), defaults={"mu": "0"}
    )
    settings = dict(echo)
    settings["algebra"] = algebra
    if algebra == "block":
        _block_params(scalars, job)
    else:
        settings["theta"] = _int_field(raw, job, "theta", default=0)
    window = _window_field(raw, job)
    settings["window"] = _echo_window(window)
    generators = _field(raw, job, "generators")
    if not isinstance(generators, list) or not generators:
        raise ConfigError(f"{job}: field 'generators' must be a nonempty list")
    parsed = [parse_element(text) for text in generators]
    settings["generators"] = [str(g) for g in parsed]
    queries = raw.get("membership", [])
    if not isinstance(queries, list):
        raise ConfigError(f"{job}: field 'membership' must be a list")
    parsed_queries = [parse_element(text) for text in queries]
    settings["membership"] = [str(qe) for qe in parsed_queries]
    settings["_scalars"] = scalars
    settings["_window"] = window
    settings["_generators"] = parsed
    settings["_membership"] = parsed_queries
    return settings


def _validate_modcheck(raw: dict) -> dict:
    job = "modcheck"
    echo, scalars = _parameters(raw, job, ("p", "q"), symbolic_ok=())
    settings = dict(echo)
    _block_params(scalars, job)
    family = _field(raw, job, "family")
    if family not in intermediate.VARIANTS:
        raise ConfigError(
            f"{job}: field 'family' must be one of {', '.join(intermediate.VARIANTS)}"
        )
    settings["family"] = family
    a = _rational_field(raw, job, "a")
    settings["a"] = format_rational(a)
    b = None
    if family == "Aab":
        b = _rational_field(raw, job, "b")
        settings["b"] = format_rational(b)
    elif "b" in raw:
        raise ConfigError(f"{job}: field 'b' applies only to the Aab family")
    window = _window_field(raw, job)
    settings["window"] = _echo_window(window)
    weight_range = _field(raw, job, "weight_range")
    if (
        not isinstance(weight_range, list)
        or len(weight_range) != 2
        or not all(_is_int(v) for v in weight_range)
        or weight_range[0] > weight_range[1]
    ):
        raise ConfigError(f"{job}: field 'weight_range' must be [lo, hi] integers")
    settings["weight_range"] = weight_range
    central_value = _rational_field(raw, job, "central_value", default=Fraction(0))
    settings["central_value"] = format_rational(central_value)
    settings["_scalars"] = scalars
    settings["_kind"] = intermediate.IntermediateKind(family, a, b)
    settings["_window"] = window
    settings["_central_value"] = central_value
    return settings


_VALIDATORS = {
    "axioms": _validate_axioms,
    "affinize": _validate_affinize,
    "blockcheck": _validate_blockcheck,
    "classify": _validate_classify,
    "singular": lambda raw: _validate_kernel_shaped(raw, "singular"),
    "crosscheck": lambda raw: _validate_kernel_shaped(raw, "crosscheck"),
    "closure": _validate_closure,
    "modcheck": _validate_modcheck,
}


# -- serialization helpers ---------------------------------------------------


def _verdict_json(verdict: Verdict, universal: bool = True) -> dict:
    if verdict.holds:
        label = "holds_universally" if universal else "holds_on_tested_grid"
        return {"verdict": label, "witness": None, "residual": None}
    return {
        "verdict": "fails",
        "witness": [format_rational(v) if isinstance(v, (int, Fraction)) else str(v)
                    for v in _flatten(verdict.witness)],
        "residual": str(verdict.residual),
    }


def _flatten(value):
    if isinstance(value, tuple):
        out = []
        for item in value:
            out.extend(_flatten(item))
        return out
    return [value]


def _certificate_json(cert: hweight.RecurrenceCertificate | None):
    if cert is None:
        return None
    return {
        "annihilator": [format_rational(c) for c in cert.annihilator],
        "polynomial": hweight.format_poly(cert.annihilator),
        "degree": cert.degree,
        "verified_horizon": cert.verified_horizon,
    }


def _public_settings(settings: dict) -> dict:
    return {k: v for k, v in settings.items() if not k.startswith("_")}


# -- job runners -------------------------------------------------------------


def _run_axioms(settings: dict) -> tuple[dict, bool]:
    if "_table" in settings:
        rule = novikov.table_product_rule(settings["_table"])
    else:
        scalars = settings["_scalars"]
        params = novikov.WittNovikovParams(
            p=scalars["p"], mu=scalars["mu"], theta=settings["theta"]
        )
        if "perturb" in settings:
            spec = settings["perturb"]
            rule = novikov.perturbed_witt_rule(
                params,
                spec["target"],
                tuple(spec["exponents"]),
                settings["_delta"],
            )
        else:
            rule = novikov.witt_product_rule(params)
    try:
        verdicts = novikov.novikov_axiom_check(rule, settings["_grades"])
    except engine.InsufficientGridError as exc:
        raise ConfigError(f"axioms: {exc}") from None
    results = {
        "mode": "table" if "_table" in settings else "family",
        "left_symmetry": _verdict_json(verdicts.left_symmetry, rule.universal),
        "right_commutativity": _verdict_json(
            verdicts.right_commutativity, rule.universal
        ),
    }
    return results, verdicts.holds


def _run_affinize(settings: dict) -> tuple[dict, bool]:
    scalars = settings["_scalars"]
    params = novikov.WittNovikovParams(
        p=scalars["p"], mu=scalars["mu"], theta=settings["theta"]
    )
    aff = novikov.AffinizationParams(q=scalars["q"])
    levels = settings["_levels"]
    base_rule = novikov.witt_product_rule(params)
    try:
        report = novikov.theorem22_probe(base_rule, aff, settings["_grades"], levels)
    except engine.InsufficientGridError as exc:
        raise ConfigError(f"affinize: {exc}") from None
    results: dict[str, Any] = {
        "base": {
            "novikov": {
                "left_symmetry": _verdict_json(report.novikov.left_symmetry),
                "right_commutativity": _verdict_json(report.novikov.right_commutativity),
            },
            "jacobi_of_affinization": _verdict_json(report.jacobi_of_affinization),
            "equivalence_observed": report.equivalence_observed,
        }
    }
    positive = report.equivalence_observed
    if "mutations" in settings:
        spec = settings["mutations"]
        rng = random.Random(spec["seed"])
        sweep = []
        for _ in range(spec["count"]):
            target = rng.choice(["main", "shift"])
            exponents = (rng.randint(0, 2), rng.randint(0, 2))
            delta = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            mutated = novikov.perturbed_witt_rule(params, target, exponents, delta)
            bound = mutated.grade_degree_bound
            mut_grades = [Fraction(v) for v in range(-bound, bound + 1)]
            try:
                mut_report = novikov.theorem22_probe(mutated, aff, mut_grades, levels)
            except engine.InsufficientGridError as exc:
                raise ConfigError(f"affinize: mutation sweep: {exc}") from None
            sweep.append(
                {
                    "target": target,
                    "exponents": list(exponents),
                    "delta": format_rational(delta),
                    "novikov_holds": mut_report.novikov.holds,
                    "jacobi_holds": mut_report.jacobi_of_affinization.holds,
                    "equivalence_observed": mut_report.equivalence_observed,
                }
            )
        agreement = all(entry["equivalence_observed"] for entry in sweep)
        results["mutations"] = {
            "count": spec["count"],
            "seed": spec["seed"],
            "all_equivalence_observed": agreement,
            "sweep": sweep,
        }
        positive = positive and agreement
    return results, positive


def _run_blockcheck(settings: dict) -> tuple[dict, bool]:
    scalars = settings["_scalars"]
    params = block.BlockParams(p=scalars["p"], q=scalars["q"])
    window = settings["_window"]
    try:
        cocycle = block.cocycle_jacobi_check(params, settings["_cocycle_grades"])
    except engine.InsufficientGridError as exc:
        raise ConfigError(f"blockcheck: field 'cocycle_grades': {exc}") from None
    virasoro = block.virasoro_embedding_check(params, window)
    laurent = block.laurent_realization_check(params, window)
    try:
        jacobi = engine.grid_identity_check(
            block.delta_free_rule(params),
            "jacobi",
            settings["_jacobi_grades"],
            settings["_jacobi_levels"],
        )
    except engine.InsufficientGridError as exc:
        raise ConfigError(
            f"blockcheck: field 'jacobi_grades' or 'jacobi_levels': {exc}"
        ) from None
    results = {
        "cocycle_jacobi": _verdict_json(cocycle),
        "virasoro_embedding": _verdict_json(virasoro),
        "laurent_realization": _verdict_json(laurent),
        "delta_free_jacobi": _verdict_json(jacobi),
    }
    positive = all(v.holds for v in (cocycle, virasoro, laurent, jacobi))
    return results, positive


def _run_classify(settings: dict) -> tuple[dict, bool]:
    scalars = settings["_scalars"]
    params = block.BlockParams(p=scalars["p"], q=scalars["q"])
    report = hweight.classify_quasifinite(
        settings["_weight"], params, settings["horizon"]
    )
    results = {
        "verdict": report.verdict,
        "horizon": report.horizon,
        "certificate": _certificate_json(report.certificate),
        "annihilator": None
        if report.annihilator is None
        else [format_rational(c) for c in report.annihilator],
        "certificate_matches_annihilator": report.certificate_matches_annihilator,
    }
    return results, report.quasifinite


def _run_singular(settings: dict) -> tuple[dict, bool]:
    scalars = settings["_scalars"]
    params = block.BlockParams(p=scalars["p"], q=scalars["q"])
    candidates = hweight.singular_vector_solve(
        settings["_weight"], params, settings["max_level"], settings["horizon"]
    )
    results = {
        "kernel_dimension": len(candidates),
        "candidates": [
            {
                "coefficients": [format_rational(c) for c in cand.coefficients],
                "element": str(
                    Element(
                        {
                            Graded(-1, i): c
                            for i, c in enumerate(cand.coefficients)
                            if c
                        }
                    )
                ),
                "verified_horizon": cand.verified_horizon,
            }
            for cand in candidates
        ],
    }
    return results, bool(candidates)


def _run_crosscheck(settings: dict) -> tuple[dict, bool]:
    scalars = settings["_scalars"]
    params = block.BlockParams(p=scalars["p"], q=scalars["q"])
    report = hweight.criteria_cross_check(
        settings["_weight"], params, settings["max_level"], settings["horizon"]
    )
    results = {
        "delta_route": report.delta_route,
        "kernel_route": report.kernel_route,
        "routes_agree": report.routes_agree,
        "annihilator_vs_kernel": report.annihilator_vs_kernel,
        "certificate": _certificate_json(report.certificate),
        "kernel": [
            [format_rational(c) for c in cand.coefficients]
            for cand in report.candidates
        ],
    }
    positive = report.routes_agree and report.annihilator_vs_kernel != "different"
    return results, positive


def _run_closure(settings: dict) -> tuple[dict, bool]:
    scalars = settings["_scalars"]
    if settings["algebra"] == "block":
        params = block.BlockParams(p=scalars["p"], q=scalars["q"])
        rule = block.block_bracket_rule(params)
    else:
        rule = novikov.affinize(
            novikov.witt_product_rule(
                novikov.WittNovikovParams(
                    p=scalars["p"], mu=scalars["mu"], theta=settings["theta"]
                )
            ),
            novikov.AffinizationParams(q=scalars["q"]),
        )
    try:
        closure = engine.subalgebra_closure(
            rule, settings["_generators"], settings["_window"]
        )
    except engine.ClosureError as exc:
        raise ConfigError(f"closure: {exc}") from None
    by_grade = {
        str(grade): [str(row) for row in rows]
        for grade, rows in closure.by_grade().items()
    }
    memberships = []
    for query, text in zip(settings["_membership"], settings["membership"]):
        try:
            inside = engine.membership(query, closure)
        except engine.ClosureError as exc:
            raise ConfigError(f"closure: membership query {text!r}: {exc}") from None
        memberships.append({"element": text, "member": inside})
    results = {
        "dimension": closure.dimension(),
        "basis_by_grade": by_grade,
        "membership": memberships,
    }
    return results, True


def _run_modcheck(settings: dict) -> tuple[dict, bool]:
    scalars = settings["_scalars"]
    params = block.BlockParams(p=scalars["p"], q=scalars["q"])
    kind = settings["_kind"]
    verdict = intermediate.module_axiom_check(
        kind,
        params,
        settings["_window"],
        tuple(settings["weight_range"]),
        settings["_central_value"],
    )
    bound = intermediate.boundedness_report(kind)
    results = {
        "module_axiom": {
            "verdict": "holds" if verdict.holds else "fails",
            "witness": None if verdict.holds else list(verdict.witness),
            "residual": None if verdict.holds else str(verdict.residual),
        },
        "graded_dimension_bound": bound.graded_dimension_bound,
    }
    return results, verdict.holds


_RUNNERS = {
    "axioms": _run_axioms,
    "affinize": _run_affinize,
    "blockcheck": _run_blockcheck,
    "classify": _run_classify,
    "singular": _run_singular,
    "crosscheck": _run_crosscheck,
    "closure": _run_closure,
    "modcheck": _run_modcheck,
}


def run_job(config: JobConfig) -> Report:
    started = time.monotonic()
    results, positive = _RUNNERS[config.kind](config.settings)
    elapsed = time.monotonic() - started
    return Report(
        job=config.kind,
        config=_public_settings(config.settings),
        results=results,
        positive=positive,
        elapsed_seconds=elapsed,
    )


# -- emission ----------------------------------------------------------------


def _text_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_text_atom(inner)}")
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}-")
                lines.extend(_text_lines(inner, indent + 1))
            else:
                lines.append(f"{pad}- {_text_atom(inner)}")
    else:
        lines.append(f"{pad}{_text_atom(value)}")
    return lines


def _text_atom(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return "{}" if isinstance(value, dict) else "[]"
    return str(value)


def emit_report(report: Report, format: str = "text") -> str:
    """Serialize a report; byte-deterministic for a given config.

    Timing is deliberately excluded from both formats (it lives on the Report
    object and is printed to stderr by the CLI)."""
    document = {
        "job": report.job,
        "config": report.config,
        "results": report.results,
        "positive": report.positive,
    }
    if format == "machine":
        return json.dumps(document, sort_keys=True, indent=2) + "\n"
    if format == "text":
        lines = [f"job: {report.job}", "config:"]
        lines.extend(_text_lines(report.config, 1))
        lines.append("results:")
        lines.extend(_text_lines(report.results, 1))
        lines.append(f"positive: {_text_atom(report.positive)}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blocklie",
        description="Exact verification and classification jobs for Block type "
        "Lie algebras; one JSON config per run.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON job config")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--seed", type=int, default=None, help="overrides the config's mutations.seed"
    )
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            if "mutations" not in config.settings:
                raise ConfigError(
                    f"--seed applies only to jobs with 'mutations'; "
                    f"this {config.kind} job has none"
                )
            config.settings["mutations"]["seed"] = args.seed
        report = run_job(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    try:
        document = emit_report(report, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
        else:
            sys.stdout.write(document)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    print(f"# elapsed: {report.elapsed_seconds:.3f}s", file=sys.stderr)
    return 0 if report.positive else 1


if __name__ == "__main__":
    sys.exit(main())
