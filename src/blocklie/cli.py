"""Batch front end: one JSON job config in, one deterministic report out.

A config selects exactly one job kind and its inputs.  Each kind's validator
reads its fields through a `_Fields` reader, once each: a read parses one
field, raises ConfigError naming its full path (such as `weight.qp[0].base`),
and records the field's echo, defaults included, in read order.  A key that
no read asks for, at top level or nested, is an input error.  The validator
returns the job's runner bound to the parsed inputs, and the report echoes
what was read, so the report is a pure function of the config (randomized
jobs require an explicit seed).  The machine format is JSON with sorted keys
and all rationals rendered as "a/b" strings; the text format is
line-oriented and keeps the echo's read order.  Both are byte-deterministic
for a given config; wall-clock timing goes to stderr only.

Exit status: 0 positive verdict, 1 negative verdict, 2 input error,
3 internal error (`--debug` adds its traceback on stderr).

Importing this module loads what every run reads: `argparse`, `json`,
`fractions`, `scalars`, `engine` and `block`.  The modules that only some job
kinds read, `hweight` (classify, singular, crosscheck), `novikov` (axioms,
affinize, the affinized closure) and `intermediate` (modcheck), are put in
`sys.modules` unexecuted, and each body runs when a job first reads one of
its names; a Block closure or a blockcheck runs none of the three.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import re
import sys
import time
from fractions import Fraction
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

from . import block, engine
from .engine import CENTRAL, Element, Graded, Verdict, Window
from .scalars import PolyRing, accumulate, format_rational, parse_rational


def _deferred(name: str):
    """The package module `name`, whose body runs at its first attribute read.

    A module already imported is returned as it is, so each module has one
    object; otherwise an unexecuted one is registered in `sys.modules` and on
    the package, where an import would put it and where a tool that wraps the
    package's functions after importing the CLI (perfbench's tracer) finds
    it."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


hweight, intermediate, novikov = map(_deferred, ("hweight", "intermediate", "novikov"))

_REQUIRED = object()
_GRID5 = ["-2", "-1", "0", "1", "2"]
# graded labels of a window, (grade_max - grade_min + 1) * (level_max + 1); a
# closure's work grows with its square, and no archived window has over 81
MAX_WINDOW_LABELS = 1000
# graded labels of a blockcheck window, a field that no check reads: the
# three B(p,q) checks are proved for every index and scan no window or grid.
# The window and `cocycle_grades` are still accepted, bounded and echoed,
# because benchmark and archived blockcheck configs send them; they go with
# these bounds once none does
MAX_BLOCKCHECK_LABELS = 200
# distinct cocycle_grades, deg K + 2 for the cubic cocycle K: the grid that
# held a witness of a failed cocycle proof while that check still scanned
MIN_COCYCLE_GRADES = 5
# last series index of a highest-weight job: horizon for classify, max_level +
# horizon for singular and crosscheck; a classify of dense labels (no
# recurrence, so the search runs to the end) takes about 5 s at 500 and 75 s
# at 1000 on a 2-vCPU host, and no archived or benchmark job goes past 60
MAX_SERIES_HORIZON = 500
# min(max_level, horizon) of singular and crosscheck: the kernel matrix has
# horizon + 1 rows and max_level + 1 columns, and its elimination grows with
# the rank and the bits of the labels; a square kernel of side 30 takes about
# 1.5 s on labels from bases 2/3, -5/4, 7/5 and 5.5 s on bases 89/97, -95/96,
# 91/93, side 40 about 9 s and 33 s (2-vCPU host), and no archived or
# benchmark job goes past 5
MAX_KERNEL_SIDE = 30
# affinize mutations: each is a Novikov and an affinized Jacobi proof with a
# witness scan, about 4.5 ms (100 take 0.29 to 0.32 s on a 2-vCPU host whose
# reference kernel takes 3.1 to 3.5 ms), and no archived or benchmark config
# runs more than 6
MAX_MUTATIONS = 100
# values of one grid field: a table rule's axiom scan visits every triple of
# its grid, 0.3 s at 50 values and 2.4 s at 100 on a table that holds
# (2-vCPU host), and no archived or benchmark grid has more than 6
MAX_GRID_VALUES = 50
# weights lo..hi of a modcheck: each is checked against every level-0 label
# pair, 0.005 s for 201 weights and 0.035 s for 2001 on grades -2..2 (2-vCPU
# host), and no archived or benchmark range has more than 9
MAX_WEIGHT_VALUES = 201
# a modcheck's window labels squared times its weights, which the two bounds
# above leave at up to 201 million; only level-0 pairs are checked, in integer
# arithmetic, so one weight on 1,000 level-0 labels takes 0.8 to 1.3 s, 201
# weights on 70 0.8 to 1.2 s and one weight on 100 grades x 10 levels 0.01 s
# (2-vCPU host), and no archived or benchmark modcheck has more than 2,025
MAX_PAIR_WEIGHTS = MAX_WINDOW_LABELS**2


class ConfigError(ValueError):
    """Invalid job configuration (parse or semantic)."""


class JobConfig(NamedTuple):
    """One validated job: its kind, the echo of its resolved inputs, and its
    runner bound to the parsed inputs."""

    kind: str
    settings: dict
    run: Callable[[], tuple[dict, bool]]


class Report(NamedTuple):
    job: str
    config: dict
    results: dict
    positive: bool
    elapsed_seconds: float


# -- config reading ----------------------------------------------------------


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not numbers here
    return isinstance(value, int) and not isinstance(value, bool)


class _Fields:
    """One JSON object of a config, read field by field.

    Every typed read marks its field read, parses it, raises ConfigError
    naming the field's full path, and records the field's echo in read order.
    `finish` rejects any key that no read asked for, here and in every object
    read from this one.
    """

    def __init__(self, raw, job: str, path: str = ""):
        if not isinstance(raw, dict):
            raise ConfigError(f"{job}: field '{path}' must be an object")
        self.raw, self.job, self.path = raw, job, path
        self.echo: dict[str, Any] = {}
        self.read: set[str] = set()
        self.children: list[_Fields] = []

    def where(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def error(self, name: str, problem: str) -> ConfigError:
        return ConfigError(f"{self.job}: field '{self.where(name)}' {problem}")

    def has(self, name: str) -> bool:
        return name in self.raw

    def take(self, name: str, default=_REQUIRED):
        """The raw value of a field (or its default), marked read; no echo."""
        self.read.add(name)
        if name in self.raw:
            return self.raw[name]
        if default is _REQUIRED:
            raise ConfigError(f"{self.job}: missing required field '{self.where(name)}'")
        return default

    def finish(self) -> None:
        for name in self.raw:
            if name not in self.read:
                raise self.error(name, "does not apply to this job")
        for child in self.children:
            child.finish()

    def int(self, name: str, default=_REQUIRED, minimum=None, maximum=None) -> int:
        value = self.take(name, default)
        if not _is_int(value):
            raise self.error(name, "must be an integer")
        if minimum is not None and value < minimum:
            raise self.error(name, f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise self.error(name, f"must be <= {maximum}")
        self.echo[name] = value
        return value

    def ints(self, name: str, count: int, minimum=None) -> list[int]:
        values = self.take(name)
        if not (
            isinstance(values, list)
            and len(values) == count
            and all(_is_int(v) and (minimum is None or v >= minimum) for v in values)
        ):
            floor = "" if minimum is None else f" >= {minimum}"
            raise self.error(name, f"must be a list of {count} integers{floor}")
        self.echo[name] = values
        return values

    def _parse_rational(self, name: str, value) -> Fraction:
        try:
            return parse_rational(value)
        except (ValueError, TypeError):
            raise self.error(name, f'must be a rational like "3/4" (got {value!r})') from None

    def rational(self, name: str, default=_REQUIRED) -> Fraction:
        value = self._parse_rational(name, self.take(name, default))
        self.echo[name] = format_rational(value)
        return value

    def array(self, name: str, default=_REQUIRED, nonempty=True) -> list:
        values = self.take(name, default)
        if not isinstance(values, list) or (nonempty and not values):
            raise self.error(name, "must be a nonempty list" if nonempty else "must be a list")
        return values

    def rationals(self, name: str, default=_REQUIRED, grid=False) -> list[Fraction]:
        """A list of rationals; a grid's are distinct, at most MAX_GRID_VALUES."""
        raw = self.array(name, default)
        if grid and len(raw) > MAX_GRID_VALUES:
            raise self.error(
                name, f"has {len(raw)} values, more than the {MAX_GRID_VALUES} allowed"
            )
        values = [self._parse_rational(f"{name}[{k}]", value) for k, value in enumerate(raw)]
        if grid and len(set(values)) != len(values):
            raise self.error(name, "values must be distinct")
        self.echo[name] = [format_rational(v) for v in values]
        return values

    def choice(self, name: str, options: Sequence[str], default=_REQUIRED) -> str:
        value = self.take(name, default)
        if not isinstance(value, str) or value not in options:
            raise self.error(name, f"must be one of {', '.join(options)}")
        self.echo[name] = value
        return value

    def scalars(self, names: Sequence[str], symbolic=(), defaults=None) -> list:
        """Rationals, or symbols of one shared ring where a field reads "symbolic"."""
        raw = {name: self.take(name, (defaults or {}).get(name, _REQUIRED)) for name in names}
        formal = [name for name in names if raw[name] == "symbolic"]
        for name in formal:
            if name not in symbolic:
                raise self.error(name, "cannot be symbolic here")
        ring = PolyRing(*formal) if formal else None
        values = []
        for name in names:
            if name in formal:
                self.echo[name] = "symbolic"
                values.append(ring.var(name))
            else:
                values.append(self.rational(name, raw[name]))
        return values

    def elements(
        self, name: str, window: Window, default=_REQUIRED, nonempty=True
    ) -> list[Element]:
        """Elements whose every label lies in `window`."""
        values = []
        for k, text in enumerate(self.array(name, default, nonempty)):
            try:
                element = parse_element(text)
                outside = next((i for i in element.terms if not window.contains(i)), None)
                if outside is not None:
                    raise ConfigError(f"label {outside} lies outside the closure window")
            except ConfigError as exc:
                raise ConfigError(f"{self.job}: field '{self.where(name)}[{k}]': {exc}") from None
            values.append(element)
        self.echo[name] = [str(e) for e in values]
        return values

    def obj(self, name: str, default=_REQUIRED) -> _Fields | None:
        """A nested object's reader; None when an optional object is absent."""
        value = self.take(name, default)
        if not self.has(name):
            return None
        child = _Fields(value, self.job, self.where(name))
        self.echo[name] = child.echo
        self.children.append(child)
        return child

    def objs(self, name: str, nonempty=True) -> list[_Fields]:
        children = [
            _Fields(value, self.job, self.where(f"{name}[{k}]"))
            for k, value in enumerate(self.array(name, nonempty=nonempty))
        ]
        self.echo[name] = [child.echo for child in children]
        self.children.extend(children)
        return children

    def window(self, max_labels: int = MAX_WINDOW_LABELS) -> Window:
        fields = self.obj("window")
        grade_min, grade_max = fields.int("grade_min"), fields.int("grade_max")
        level_max = fields.int("level_max", minimum=0)
        labels = (grade_max - grade_min + 1) * (level_max + 1)
        if labels > max_labels:
            raise self.error(
                "window", f"has {labels} graded labels, more than the {max_labels} allowed"
            )
        try:
            return Window(grade_min, grade_max, level_max)
        except ValueError as exc:
            raise self.error("window", f"is invalid: {exc}") from None


# a coefficient's denominator needs a nonzero digit, and may start with 0
_TERM_RE = re.compile(
    r"^(?:(?P<num>[+-]?\d+)(?:/(?P<den>\d*[1-9]\d*))?\*?)?"
    r"(?:(?P<c>c)|L\[(?P<g>-?\d+),(?P<l>\d+)\])$"
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
    """Parse sums like "2*L[1,0] - 1/3*L[-2,4] + c", or "0", into an Element;
    the inverse of `Element.__str__`."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(f"empty element text: {text!r}")
    compact = text.replace(" ", "")
    if compact == "0":
        return Element.zero()
    if compact[-1] in "+-":
        raise ConfigError(f"element {text!r} ends in a sign with no term after it")
    terms = []
    for chunk in _split_terms(compact):
        negative = chunk.startswith("-")
        chunk = chunk[negative:]
        match = _TERM_RE.match(chunk)
        if not match:
            raise ConfigError(
                f"cannot parse element term {chunk!r} in {text!r}; expected "
                "rational*L[grade,level] with level >= 0, or rational*c, where a "
                "rational's denominator is nonzero"
            )
        num = int(match.group("num") or 1)
        coeff = Fraction(-num if negative else num, int(match.group("den") or 1))
        if match.group("c"):
            index = CENTRAL
        else:
            index = Graded(int(match.group("g")), int(match.group("l")))
        terms.append((index, coeff))
    return Element(accumulate({}, terms))


def _block_params(f: _Fields, p, q) -> block.BlockParams:
    try:
        return block.BlockParams(p=p, q=q)
    except ValueError as exc:
        raise ConfigError(f"{f.job}: {exc}") from None


def _weight(f: _Fields, params: block.BlockParams, horizon: int, synthesize):
    """The highest weight, reaching index `horizon`, and its quasipolynomial
    generator: the labels as given, with generator None, or what `synthesize`
    makes of the generator (its labels or its series), with the generator."""
    w = f.obj("weight")
    if w.has("labels") == w.has("qp"):
        raise f.error("weight", "needs exactly one of 'labels' or 'qp'")
    if w.has("labels"):
        labels = w.rationals("labels")
        if len(labels) <= horizon:
            raise w.error(
                "labels",
                f"must reach horizon {horizon} "
                f"({horizon + 1} labels required, got {len(labels)})",
            )
        w.rational("central", "0")  # echoed; the central label enters no route
        return tuple(labels), None
    terms = [(t.rationals("poly"), t.rational("base")) for t in w.objs("qp", nonempty=False)]
    qp = hweight.QuasiPolynomial.of(terms)
    try:
        weight, singular = synthesize(qp, params, horizon)
    except hweight.UnrealizableError as exc:
        raise w.error("qp", f"is unrealizable: {exc}") from None
    # the echo shows the normalized terms: bases merged and sorted, zeros dropped
    w.echo["qp"] = [
        {"poly": [format_rational(c) for c in coeffs], "base": format_rational(b)}
        for coeffs, b in qp.terms
    ]
    w.rational("central", "0")
    w.echo["singular_indices"] = list(singular)
    return weight, qp


def _validate_axioms(f: _Fields):
    if f.has("table"):
        # extensional product on a small index window: no terms, so its
        # verdicts hold on the tested grid only
        for name in ("p", "mu", "theta", "perturb"):
            if f.has(name):
                raise ConfigError(f"axioms: '{name}' does not apply in table mode")
        entries: dict[tuple[int, int], Element] = {}
        for row in f.objs("table"):
            pair = row.int("a"), row.int("b")
            if pair in entries:
                raise ConfigError(f"axioms: field '{row.path}' duplicates pair {pair}")
            terms = [
                (Graded(term.int("grade"), 0), term.rational("coeff"))
                for term in row.objs("out", nonempty=False)
            ]
            entries[pair] = Element(accumulate({}, terms))
        default_grid = sorted({str(k) for pair in entries for k in pair})
        grades = f.rationals("grades", default_grid, grid=True)
        return partial(_run_axioms, novikov.table_product_rule(entries), grades, "table")
    p, mu = f.scalars(("p", "mu"), symbolic=("p", "mu"), defaults={"mu": "0"})
    params = novikov.WittNovikovParams(p=p, mu=mu, theta=f.int("theta", 0))
    grades = f.rationals("grades", _GRID5, grid=True)
    perturb = f.obj("perturb", None)
    if perturb is None:
        rule = novikov.witt_product_rule(params)
    else:
        target = perturb.choice("target", ("main", "shift"))
        exponents = tuple(perturb.ints("exponents", 2, minimum=0))
        rule = novikov.perturbed_witt_rule(params, target, exponents, perturb.rational("delta"))
    return partial(_run_axioms, rule, grades, "family")


def _validate_affinize(f: _Fields):
    p, mu, q = f.scalars(("p", "mu", "q"), symbolic=("p", "mu", "q"), defaults={"mu": "0"})
    params = novikov.WittNovikovParams(p=p, mu=mu, theta=f.int("theta", 0))
    grades = f.rationals("grades", _GRID5, grid=True)
    levels = f.rationals("levels", ["0", "1", "2"], grid=True)
    mutations = f.obj("mutations", None)
    sweep = None
    if mutations is not None:
        # the seed has no default: a report must name the seed it was made with
        count = mutations.int("count", minimum=1, maximum=MAX_MUTATIONS)
        sweep = count, mutations.int("seed", minimum=0)
    aff = novikov.AffinizationParams(q=q)
    return partial(_run_affinize, params, aff, grades, levels, sweep)


def _validate_blockcheck(f: _Fields):
    p, q = f.scalars(("p", "q"), symbolic=("p", "q"))
    params = _block_params(f, p, q)
    f.window(MAX_BLOCKCHECK_LABELS)  # echoed only
    cocycle_grades = f.rationals("cocycle_grades", _GRID5, grid=True)  # echoed only
    if len(cocycle_grades) < MIN_COCYCLE_GRADES:
        raise ConfigError(
            f"blockcheck: field 'cocycle_grades': grade grid needs at least "
            f"{MIN_COCYCLE_GRADES} distinct values, got {len(cocycle_grades)}"
        )
    return partial(
        _run_blockcheck,
        params,
        f.rationals("jacobi_grades", ["-1", "0", "1"], grid=True),
        f.rationals("jacobi_levels", ["0", "1", "2"], grid=True),
    )


def _validate_classify(f: _Fields):
    params = _block_params(f, *f.scalars(("p", "q")))
    horizon = f.int("horizon", minimum=1, maximum=MAX_SERIES_HORIZON)
    weight, qp = _weight(f, params, horizon, hweight.delta_from_quasipolynomial)
    if qp is None:
        weight = hweight.delta_from_labels(weight, params, horizon)
    return partial(_run_classify, weight, qp)


def _validate_kernel_shaped(f: _Fields, run, needs_series: bool):
    # singular and crosscheck share their input shape
    params = _block_params(f, *f.scalars(("p", "q")))
    max_level = f.int("max_level", minimum=0, maximum=MAX_SERIES_HORIZON)
    # the recurrence route of crosscheck needs at least two series coefficients,
    # and both routes read the labels up to max_level + horizon
    horizon = f.int(
        "horizon",
        minimum=int(needs_series and max_level == 0),
        maximum=MAX_SERIES_HORIZON - max_level,
    )
    if min(max_level, horizon) > MAX_KERNEL_SIDE:
        raise f.error(
            "horizon", f"must be <= {MAX_KERNEL_SIDE} when max_level is over {MAX_KERNEL_SIDE}"
        )
    labels, _ = _weight(f, params, max_level + horizon, hweight.labels_from_quasipolynomial)
    return partial(run, labels, params, max_level, horizon)


def _validate_closure(f: _Fields):
    algebra = f.choice("algebra", ("block", "affinized"), "block")
    if algebra == "block":
        p, q = f.scalars(("p", "q"))
    else:
        p, q, mu = f.scalars(("p", "q", "mu"), defaults={"mu": "0"})
    f.echo["algebra"] = f.echo.pop("algebra")  # echoed after the parameters
    if algebra == "block":
        rule = block.block_bracket_rule(_block_params(f, p, q))
    else:
        witt = novikov.WittNovikovParams(p=p, mu=mu, theta=f.int("theta", 0))
        rule = novikov.affinize(novikov.witt_product_rule(witt), novikov.AffinizationParams(q=q))
    window = f.window()
    return partial(
        _run_closure,
        rule,
        window,
        f.elements("generators", window),
        f.elements("membership", window, [], nonempty=False),
    )


def _validate_modcheck(f: _Fields):
    params = _block_params(f, *f.scalars(("p", "q")))
    family = f.choice("family", intermediate.VARIANTS)
    a = f.rational("a")
    if family != "Aab" and f.has("b"):
        raise ConfigError("modcheck: field 'b' applies only to the Aab family")
    kind = intermediate.IntermediateKind(family, a, f.rational("b") if family == "Aab" else None)
    window = f.window()
    weight_range = tuple(f.ints("weight_range", 2))
    if weight_range[0] > weight_range[1]:
        raise f.error("weight_range", "must be [lo, hi] with lo <= hi")
    weights = weight_range[1] - weight_range[0] + 1
    if weights > MAX_WEIGHT_VALUES:
        raise f.error(
            "weight_range", f"spans {weights} weights, more than the {MAX_WEIGHT_VALUES} allowed"
        )
    pairs = ((window.grade_max - window.grade_min + 1) * (window.level_max + 1)) ** 2
    if pairs * weights > MAX_PAIR_WEIGHTS:
        raise ConfigError(
            f"modcheck: fields 'window' and 'weight_range' give {pairs} label pairs x "
            f"{weights} weights, more than the {MAX_PAIR_WEIGHTS} allowed"
        )
    central_value = f.rational("central_value", "0")
    return partial(_run_modcheck, kind, params, window, weight_range, central_value)


# -- serialization helpers ---------------------------------------------------


def _verdict_json(verdict: Verdict) -> dict:
    if verdict.holds:
        return {"verdict": str(verdict), "witness": None, "residual": None}
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


# -- job runners -------------------------------------------------------------


def _run_axioms(rule: engine.BracketRule, grades, mode: str) -> tuple[dict, bool]:
    try:
        verdicts = novikov.novikov_axiom_check(rule, grades)
    except engine.InsufficientGridError as exc:
        raise ConfigError(f"axioms: field 'grades': {exc}") from None
    results = {
        "mode": mode,
        "left_symmetry": _verdict_json(verdicts.left_symmetry),
        "right_commutativity": _verdict_json(verdicts.right_commutativity),
    }
    return results, verdicts.holds


def _run_affinize(params, aff, grades, levels, sweep) -> tuple[dict, bool]:
    base_rule = novikov.witt_product_rule(params)
    try:
        report = novikov.theorem22_probe(base_rule, aff, grades, levels)
    except engine.InsufficientGridError as exc:
        raise ConfigError(f"affinize: field '{exc.grid}s': {exc}") from None
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
    if sweep is not None:
        count, seed = sweep
        rng = random.Random(seed)
        entries = []
        for _ in range(count):
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
            entries.append(
                {
                    "target": target,
                    "exponents": list(exponents),
                    "delta": format_rational(delta),
                    "novikov_holds": mut_report.novikov.holds,
                    "jacobi_holds": mut_report.jacobi_of_affinization.holds,
                    "equivalence_observed": mut_report.equivalence_observed,
                }
            )
        agreement = all(entry["equivalence_observed"] for entry in entries)
        results["mutations"] = {
            "count": count,
            "seed": seed,
            "all_equivalence_observed": agreement,
            "sweep": entries,
        }
        positive = positive and agreement
    return results, positive


def _run_blockcheck(params, jacobi_grades, jacobi_levels) -> tuple[dict, bool]:
    cocycle = block.cocycle_jacobi_check(params)
    virasoro = block.virasoro_embedding_check(params)
    laurent = block.laurent_realization_check(params)
    try:
        jacobi = engine.grid_identity_check(
            block.delta_free_rule(params), "jacobi", jacobi_grades, jacobi_levels
        )
    except engine.InsufficientGridError as exc:
        raise ConfigError(f"blockcheck: field 'jacobi_{exc.grid}s': {exc}") from None
    results = {
        "cocycle_jacobi": _verdict_json(cocycle),
        "virasoro_embedding": _verdict_json(virasoro),
        "laurent_realization": _verdict_json(laurent),
        "delta_free_jacobi": _verdict_json(jacobi),
    }
    positive = all(v.holds for v in (cocycle, virasoro, laurent, jacobi))
    return results, positive


def _run_classify(series, generator) -> tuple[dict, bool]:
    report = hweight.classify_quasifinite(series, generator)
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


def _run_singular(labels, params, max_level, horizon) -> tuple[dict, bool]:
    candidates = hweight.singular_vector_solve(labels, params, max_level, horizon)
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


def _run_crosscheck(labels, params, max_level, horizon) -> tuple[dict, bool]:
    report = hweight.criteria_cross_check(labels, params, max_level, horizon)
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


def _run_closure(rule, window, generators, membership) -> tuple[dict, bool]:
    closure = engine.subalgebra_closure(rule, generators, window)
    by_grade = {
        str(grade): [str(row) for row in rows]
        for grade, rows in closure.by_grade().items()
    }
    memberships = [
        {"element": str(query), "member": engine.membership(query, closure)}
        for query in membership
    ]
    results = {
        "dimension": closure.dimension(),
        "basis_by_grade": by_grade,
        "membership": memberships,
    }
    return results, True


def _run_modcheck(kind, params, window, weight_range, central_value) -> tuple[dict, bool]:
    verdict = intermediate.module_axiom_check(
        kind, params, window, weight_range, central_value
    )
    results = {
        "module_axiom": {
            "verdict": "holds" if verdict.holds else "fails",
            "witness": None if verdict.holds else list(verdict.witness),
            "residual": None if verdict.holds else str(verdict.residual),
        },
        # every module of the intermediate series has the basis v[m], m in Z:
        # one vector per weight, so each graded piece has dimension 1
        "graded_dimension_bound": 1,
    }
    return results, verdict.holds


_VALIDATORS = {
    "axioms": _validate_axioms,
    "affinize": _validate_affinize,
    "blockcheck": _validate_blockcheck,
    "classify": _validate_classify,
    "singular": partial(_validate_kernel_shaped, run=_run_singular, needs_series=False),
    "crosscheck": partial(_validate_kernel_shaped, run=_run_crosscheck, needs_series=True),
    "closure": _validate_closure,
    "modcheck": _validate_modcheck,
}
JOB_KINDS = tuple(_VALIDATORS)


def load_config(path: str, seed: int | None = None) -> JobConfig:
    """Read and validate a config file; all defaults are resolved here.

    A `seed` replaces the config's `mutations.seed` before validation, so the
    report echoes the seed the run used."""
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
    if seed is not None:
        if not isinstance(raw.get("mutations"), dict):
            raise ConfigError(
                f"--seed applies only to jobs with 'mutations'; this {kind} job has none"
            )
        raw["mutations"]["seed"] = seed
    fields = _Fields(raw, kind)
    fields.take("job")
    run = _VALIDATORS[kind](fields)
    fields.finish()
    return JobConfig(kind, fields.echo, run)


def run_job(config: JobConfig) -> Report:
    started = time.monotonic()
    results, positive = config.run()
    elapsed = time.monotonic() - started
    return Report(
        job=config.kind,
        config=config.settings,
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
        "--seed", type=int, default=None, help="replaces the config's mutations.seed"
    )
    parser.add_argument(
        "--debug", action="store_true", help="print the traceback of an internal error (exit 3)"
    )
    args = parser.parse_args(argv)

    try:
        report = run_job(load_config(args.config, args.seed))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.debug:
            import traceback  # only this path needs it
            traceback.print_exc()
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
