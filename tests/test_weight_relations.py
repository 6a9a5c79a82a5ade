"""Two metamorphic relations of the highest-weight jobs, over whole configs.

The classify series c_k = (2q + (1 - p^2)k) Lambda_k reads p only through
p^2, so p -> -p leaves a classify job's results block unchanged.  Scaling
the weight by a rational t != 0 (each label, or each coefficient of each qp
polynomial) scales the series and the kernel rows by t, which a recurrence
and a kernel do not see, so it leaves the results blocks of classify and
crosscheck unchanged.  Both hold for a config that load refuses too: it is
refused with the same message, but for the series value that an
unrealizable qp quotes.  Neither relation is the algebra's sigma,
which maps highest to lowest weights.
"""

import copy
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from blocklie.cli import ConfigError, load_config, run_job
from blocklie.scalars import parse_rational

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero = rationals.filter(bool)
# small p and q, so that 2q + (1 - p^2)k often vanishes at a small k; half
# the p are +-1, where the series loses its term in k
parameters = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
p_values = st.one_of(st.sampled_from([1, -1]), parameters)


@st.composite
def weights(draw, size: int) -> dict:
    """About `size` labels, drawn at random or as (c + d k) r^k, which has a
    recurrence; or a quasipolynomial of up to two bases whose polynomials
    have degree below 3."""
    kind = draw(st.sampled_from(["labels", "generated", "qp"]))
    if kind == "qp":
        terms = draw(
            st.lists(st.tuples(st.lists(rationals, min_size=1, max_size=3), rationals), max_size=2)
        )
        return {"qp": [{"poly": list(map(str, poly)), "base": str(b)} for poly, b in terms]}
    count = draw(st.sampled_from([size, size, size + 1, size - 1]))
    if kind == "labels":
        labels = [draw(rationals) for _ in range(count)]
    else:
        c, d, r = draw(rationals), draw(rationals), draw(rationals)
        labels = [(c + d * k) * r**k for k in range(count)]
    return {"labels": list(map(str, labels))}


@st.composite
def configs(draw, jobs=("classify", "crosscheck")) -> dict:
    job = draw(st.sampled_from(jobs))
    config = {"job": job, "p": str(draw(p_values)), "q": str(draw(parameters))}
    if job == "classify":
        config["horizon"] = draw(st.integers(1, 12))
        size = config["horizon"] + 1
    else:
        config["max_level"] = draw(st.integers(0, 3))
        config["horizon"] = draw(st.integers(1, 6))
        size = config["max_level"] + config["horizon"] + 1
    config["weight"] = draw(weights(size))
    return config


def results(config: dict, tmp_path) -> tuple:
    """The job's results block, or the message load refuses it with, up to
    the series value that an unrealizable qp quotes, which the weight scales."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    try:
        return "results", run_job(load_config(str(path))).results
    except ConfigError as exc:
        message = str(exc)
        return "refused", message.partition(", got ")[0] if "unrealizable" in message else message


def scaled(config: dict, t: Fraction) -> dict:
    """The config with its weight scaled by t."""
    out = copy.deepcopy(config)
    weight = out["weight"]
    times = lambda text: str(parse_rational(text) * t)
    if "labels" in weight:
        weight["labels"] = list(map(times, weight["labels"]))
    for term in weight.get("qp", ()):
        term["poly"] = list(map(times, term["poly"]))
    return out


@SETTINGS
@given(configs(jobs=("classify",)))
def test_classify_reads_p_through_its_square(tmp_path_factory, config):
    tmp_path = tmp_path_factory.mktemp("sign")
    negated = {**config, "p": str(-parse_rational(config["p"]))}
    assert results(negated, tmp_path) == results(config, tmp_path)


@SETTINGS
@given(configs(), nonzero)
def test_scaling_the_weight_keeps_classify_and_crosscheck_results(tmp_path_factory, config, t):
    tmp_path = tmp_path_factory.mktemp("scale")
    assert results(scaled(config, t), tmp_path) == results(config, tmp_path)
