"""Seeded job generators for the three benchmark workloads.

A workload is an endless stream of *blocks*.  Every block of a workload holds
the same multiset of job shapes (kind, horizon, window, degree, ...); only the
random draws differ: `p`, `q`, weights, coefficients and generators.  Runs stop
at block boundaries, so every run measures the same size mix, and the latency
percentiles land inside a size class instead of on a cliff between classes.

Each job is a `Job`: the config handed to the program, the size class it
belongs to, and an `oracle` dict that `oracles.check` evaluates against the
machine report.  Nothing here imports the program under test: the generator's
exact arithmetic (series, annihilators, singular indices) is its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

BLOCK_SIZE = 20


@dataclass
class Job:
    cls: str  # size class
    config: dict  # written to disk as the job's JSON config
    oracle: dict  # what oracles.check needs to judge the report


# -- exact helpers (independent of the program) ------------------------------


def fmt(value) -> str:
    return str(Fraction(value))


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def qp_coefficient(terms, k: int) -> Fraction:
    """c_k = k! [z^k] sum_r f_r(z) exp(b_r z)."""
    total = Fraction(0)
    for coeffs, base in terms:
        for d, c in enumerate(coeffs[: k + 1]):
            total += c * Fraction(factorial(k), factorial(k - d)) * base ** (k - d)
    return total


def qp_annihilator(terms) -> list[Fraction]:
    """prod_r (t - b_r)^(deg f_r + 1), ascending coefficients."""
    out = [Fraction(1)]
    for coeffs, base in terms:
        for _ in range(len(coeffs)):
            out = poly_mul(out, [-base, Fraction(1)])
    return out


def normalizer(p: Fraction, q: Fraction, k: int) -> Fraction:
    return 2 * q + (1 - p * p) * k


def singular_index(p: Fraction, q: Fraction, horizon: int):
    """The k <= horizon where 2q + (1-p^2)k vanishes, or None."""
    if p * p == 1:
        return None
    k = 2 * q / (p * p - 1)
    return int(k) if k.denominator == 1 and 0 <= k <= horizon else None


# -- random draws ---------------------------------------------------------------


def _rational(rng: random.Random, span: int, den: int, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if value or not nonzero:
            return value


def _distinct_bases(rng: random.Random, count: int) -> list[Fraction]:
    bases: list[Fraction] = []
    while len(bases) < count:
        b = _rational(rng, 3, 2)
        if b not in bases:
            bases.append(b)
    return bases


def _qp_terms(rng: random.Random, degree: int):
    """Random quasipolynomial whose minimal annihilator has exactly `degree`."""
    parts = []
    left = degree
    while left:
        size = rng.randint(1, min(left, 3))
        parts.append(size)
        left -= size
    terms = []
    for size, base in zip(parts, _distinct_bases(rng, len(parts))):
        coeffs = [_rational(rng, 5, 3) for _ in range(size - 1)]
        coeffs.append(_rational(rng, 5, 3, nonzero=True))
        terms.append((coeffs, base))
    return terms


def _qp_json(terms) -> list[dict]:
    return [{"poly": [fmt(c) for c in coeffs], "base": fmt(b)} for coeffs, b in terms]


def _pq_for_series(rng: random.Random, terms, horizon: int, p=None):
    """Draw (p, q), q != 0, skipping any pair whose singular index carries a
    nonzero series coefficient: the program rejects that weight at load
    ("weight.qp unrealizable")."""
    while True:
        pp = _rational(rng, 6, 3) if p is None else Fraction(p)
        qq = _rational(rng, 6, 3, nonzero=True)
        k = singular_index(pp, qq, horizon)
        if k is None or qp_coefficient(terms, k) == 0:
            return pp, qq


# -- classify_sweep ---------------------------------------------------------------

# (degree, horizon) of the quasipolynomial classify slots: early exit at `degree`;
# the four (3, 32) slots hold the median
_QP_SHAPES = [(1, 20), (2, 24)] + [(3, 32)] * 4 + [(4, 36), (5, 36), (6, 30), (6, 40)]
# horizon of the dense-label slots: no recurrence, full search to horizon // 2
_DENSE_HORIZONS = [30, 32, 32, 34]
# (p fixed to 0?, max_level, horizon) of the crosscheck and singular slots
_KERNEL_SHAPES = [(True, 2, 10), (True, 3, 12), (False, 2, 10), (False, 3, 12)]
_SINGULAR_SHAPES = [(True, 3, 12), (False, 3, 12)]


def _classify_qp(rng, degree, horizon) -> Job:
    terms = _qp_terms(rng, degree)
    p, q = _pq_for_series(rng, terms, horizon)
    config = {
        "job": "classify",
        "p": fmt(p),
        "q": fmt(q),
        "horizon": horizon,
        "weight": {"qp": _qp_json(terms), "central": fmt(_rational(rng, 3, 2))},
    }
    return Job("qp_classify", config, {"kind": "classify_qp", "annihilator": qp_annihilator(terms)})


def _classify_dense(rng, horizon) -> Job:
    p = _rational(rng, 6, 3)
    q = _rational(rng, 6, 3, nonzero=True)
    labels = [Fraction(rng.randint(-9, 9)) for _ in range(horizon + 1)]
    config = {
        "job": "classify",
        "p": fmt(p),
        "q": fmt(q),
        "horizon": horizon,
        "weight": {"labels": [fmt(v) for v in labels]},
    }
    return Job("dense_classify", config, {"kind": "classify_labels", "p": p, "q": q, "labels": labels})


def _kernel_job(rng, kind, p_zero, max_level, horizon) -> Job:
    degree = rng.randint(1, max_level)
    terms = _qp_terms(rng, degree)
    p, q = _pq_for_series(rng, terms, max_level + horizon, p=0 if p_zero else None)
    config = {
        "job": kind,
        "p": fmt(p),
        "q": fmt(q),
        "max_level": max_level,
        "horizon": horizon,
        "weight": {"qp": _qp_json(terms), "central": "0"},
    }
    oracle = {
        "kind": kind,
        "p": p,
        "q": q,
        "terms": terms,
        "annihilator": qp_annihilator(terms),
        "max_level": max_level,
        "horizon": horizon,
    }
    return Job(kind, config, oracle)


def classify_block(rng: random.Random) -> list[Job]:
    # latency bands, fastest first: crosscheck, singular and degree 1-2
    # quasipolynomial classify (40%), degree 3 at horizon 32 (20%, holds the
    # median), degree 4-6 (20%), dense labels (20%, holds p90)
    jobs = [_classify_qp(rng, d, h) for d, h in _QP_SHAPES]
    jobs += [_classify_dense(rng, h) for h in _DENSE_HORIZONS]
    jobs += [_kernel_job(rng, "crosscheck", *shape) for shape in _KERNEL_SHAPES]
    jobs += [_kernel_job(rng, "singular", *shape) for shape in _SINGULAR_SHAPES]
    return jobs


# -- closure_sweep ------------------------------------------------------------------

# (size class, algebra, (grade_min, grade_max, level_max), generator supports);
# the coefficients on each support are drawn per job.  With the generic p and q
# of `_generic` the closure dimension is fixed by the shape, so each class has
# a narrow latency band.  Latency bands, fastest first: single generator and
# monomial pair (30%), two sparse generators on the block algebra (40%, holds
# the median), affinized pair (10%), three monomials in a dim-56 window (20%,
# holds p90).
_CLOSURE_SHAPES = (
    [("single_dense", "affinized", (-3, 3, 7), [[(1, 0), (0, 2), (-2, 1), (3, 5), (-1, 7)]])] * 2
    + [("monomial_pair", "block", (-2, 2, 3), [[(1, 0)], [(-1, 1)]])] * 4
    + [("sparse_pair", "block", (-2, 2, 3), [[(1, 0), (-1, 2)], [(-1, 0), (0, 1)]])] * 8
    + [("affinized_pair", "affinized", (-2, 2, 3), [[(1, 0), (1, 1)], [(-1, 0)]])] * 2
    + [("monomial_triple", "block", (-3, 3, 7), [[(1, 0)], [(-1, 1)], [(2, 2)]])] * 4
)


def _generic(rng: random.Random, den: int) -> Fraction:
    """A non-integral rational n/den, so no structure constant vanishes by accident."""
    while True:
        n = rng.randint(-4 * den, 4 * den)
        if n % den:
            return Fraction(n, den)


def _element_text(terms: dict) -> str:
    text = ""
    for (g, l), c in sorted(terms.items()):
        body = f"{fmt(abs(c))}*L[{g},{l}]"
        if not text:
            text = body if c > 0 else f"-{body}"
        else:
            text += f" {'+' if c > 0 else '-'} {body}"
    return text


def _closure(rng, cls, algebra, window, supports) -> Job:
    gmin, gmax, lmax = window
    gens = [{cell: _rational(rng, 5, 3, nonzero=True) for cell in sup} for sup in supports]
    combo: dict = {}
    for gen in gens:
        scale = _rational(rng, 4, 3, nonzero=True)
        for cell, c in gen.items():
            combo[cell] = combo.get(cell, Fraction(0)) + scale * c
    combo = {cell: c for cell, c in combo.items() if c} or gens[0]
    config = {
        "job": "closure",
        "algebra": algebra,
        "p": fmt(_generic(rng, 3)),
        "q": fmt(_generic(rng, 5)),
        "window": {"grade_min": gmin, "grade_max": gmax, "level_max": lmax},
        "generators": [_element_text(g) for g in gens],
        "membership": [_element_text(gens[0]), _element_text(combo)],
    }
    if algebra == "affinized":
        config["mu"] = fmt(_generic(rng, 2))
        config["theta"] = 1  # a random shift would split the class into latency bands
    return Job(cls, config, {"kind": "closure", "generators": gens})


def closure_block(rng: random.Random) -> list[Job]:
    return [_closure(rng, *shape) for shape in _CLOSURE_SHAPES]


# -- verify_sweep -------------------------------------------------------------------


def _maybe_symbolic(rng, symbolic: bool, nonzero: bool = False):
    return "symbolic" if symbolic else fmt(_rational(rng, 6, 3, nonzero=nonzero))


def _mutation_seed(rng: random.Random) -> int:
    """A mutation seed whose one perturbation is delta * b^e, e <= 1.

    The affinize sweep draws target, then the two exponents, from
    `random.Random(seed)`.  An exponent of 2 widens the mutated grid, and a
    nonzero first exponent makes the mutated rule fail early; either would
    split the class into latency bands."""
    while True:
        seed = rng.randint(0, 2**31)
        draw = random.Random(seed)
        draw.choice(["main", "shift"])
        if draw.randint(0, 2) == 0 and draw.randint(0, 2) <= 1:
            return seed


def _grid(rng: random.Random, size: int, span: int) -> list[str]:
    """`size` distinct integers from -span..span, as a grid field."""
    return [str(v) for v in sorted(rng.sample(range(-span, span + 1), size))]


def _axioms(rng, symbolic: tuple) -> Job:
    config = {
        "job": "axioms",
        "p": "symbolic" if "p" in symbolic else fmt(_rational(rng, 6, 3)),
        "mu": "symbolic" if "mu" in symbolic else fmt(_rational(rng, 6, 3, nonzero=True)),
        "theta": rng.choice([-2, -1, 1, 2]),
        "grades": _grid(rng, 5, 3),
    }
    return Job("axioms_symbolic" if symbolic else "axioms", config, {"kind": "axioms"})


def _affinize(rng, symbolic: bool) -> Job:
    config = {
        "job": "affinize",
        "p": _maybe_symbolic(rng, symbolic),
        "mu": fmt(_rational(rng, 4, 2, nonzero=True)),
        "q": _maybe_symbolic(rng, symbolic),
        "theta": 0 if symbolic else 1,
        "grades": ["-1", "0", "1"],
    }
    if not symbolic:
        # a symbolic mutation sweep would double the job and put it in a band of its own
        config["mutations"] = {"count": 1, "seed": _mutation_seed(rng)}
    return Job("affinize_symbolic" if symbolic else "affinize", config, {"kind": "affinize"})


def _blockcheck(rng, symbolic) -> Job:
    config = {
        "job": "blockcheck",
        "p": _maybe_symbolic(rng, symbolic),
        "q": _maybe_symbolic(rng, symbolic, nonzero=True),
        "window": {"grade_min": -2, "grade_max": 2, "level_max": 1},
        "cocycle_grades": _grid(rng, 5, 3),
        "jacobi_grades": _grid(rng, 3, 2),
    }
    return Job("blockcheck_symbolic" if symbolic else "blockcheck", config, {"kind": "blockcheck"})


def _modcheck(rng, family) -> Job:
    # Aa and Ba are modules only at p = 0; Aab is one for every p
    p = _rational(rng, 6, 3) if family == "Aab" else Fraction(0)
    config = {
        "job": "modcheck",
        "p": fmt(p),
        "q": fmt(_rational(rng, 6, 3, nonzero=True)),
        "family": family,
        "a": fmt(_rational(rng, 6, 3)),
        "window": {"grade_min": -2, "grade_max": 2, "level_max": 2},
        "weight_range": [-4, 4],
    }
    if family == "Aab":
        config["b"] = fmt(_rational(rng, 6, 3))
    return Job("modcheck", config, {"kind": "modcheck"})


def verify_block(rng: random.Random) -> list[Job]:
    # latency bands, fastest first: concrete axioms and blockcheck (25%),
    # modcheck and concrete affinize (45%, holds the median), the symbolic
    # jobs (30%, hold p90)
    jobs = [_axioms(rng, ()) for _ in range(3)]
    jobs += [_blockcheck(rng, False) for _ in range(2)]
    jobs += [_modcheck(rng, fam) for fam in ("Aab", "Aab", "Aab", "Aa", "Aa", "Ba", "Ba")]
    jobs += [_affinize(rng, False) for _ in range(2)]
    jobs += [_axioms(rng, ("p",)), _axioms(rng, ("p", "mu"))]
    jobs += [_blockcheck(rng, True) for _ in range(3)]
    jobs += [_affinize(rng, True)]
    return jobs


WORKLOADS = {
    "classify_sweep": classify_block,
    "closure_sweep": closure_block,
    "verify_sweep": verify_block,
}


def make_block(workload: str, seed: int, index: int) -> list[Job]:
    """Block `index` of a workload's stream; a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = WORKLOADS[workload](rng)
    assert len(jobs) == BLOCK_SIZE, (workload, len(jobs))
    rng.shuffle(jobs)
    return jobs
