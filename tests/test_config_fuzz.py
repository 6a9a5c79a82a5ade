"""Fuzz net over the archived configs: a malformed field is exit 2, never 3.

Each example takes one archived config (`golden/`, `tests/data/`) and
mutates one or two of its fields, top-level or nested: it drops the field,
or sets it to a value from a fixed pool of wrong types and edge values.  The
job then runs `load_config -> run_job -> emit_report` in both formats, and
the only exception allowed to escape is `ConfigError`, which the CLI maps to
exit 2.  Anything else would reach the CLI's exit 3, which is kept for a
defect of the program itself.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import CONFIGS, nested_fields

from blocklie.cli import ConfigError, emit_report, load_config, run_job

DROP = object()
# an integer literal of 5,000 digits, past CPython's 4,300: json.dumps cannot
# write such an int, so the pool holds a marker that the written file replaces
HUGE_INT = "<an integer of 5,000 digits>"
POOL = (None, True, False, 0, 1, -1, 10**6, 10**20, 3.5, "", "1/0", "symbolic", [], {}, HUGE_INT)
RAW = {path.stem: json.loads(path.read_text()) for path in CONFIGS}


def field_paths(raw: dict) -> list[tuple]:
    """The path of every field of a config: its top-level keys, and the keys
    below them through objects and lists of objects."""
    return [(key,) for key in raw] + list(nested_fields(raw))


def mutate(raw: dict, path: tuple, value) -> None:
    """Drop the field at `path`, or set it to `value`, in place; a path that
    an earlier mutation removed is left alone."""
    *parents, last = path
    try:
        for key in parents:
            raw = raw[key]
        raw[last]  # a key of an object; any other value raises
    except (KeyError, IndexError, TypeError):
        return
    if value is DROP:
        del raw[last]
    else:
        raw[last] = value


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(RAW)))
    raw = copy.deepcopy(RAW[name])
    paths = field_paths(raw)
    chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True))
    mutations = [(path, draw(st.sampled_from((DROP, *POOL)))) for path in chosen]
    for path, value in mutations:
        mutate(raw, path, value)
    return name, mutations, raw


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(mutated_configs())
def test_a_mutated_archived_config_raises_nothing_but_config_error(tmp_path_factory, case):
    *_, raw = case  # the config's name and mutations show in a failing example
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(raw).replace(json.dumps(HUGE_INT), "9" * 5000))
    try:
        report = run_job(load_config(str(path)))
    except ConfigError:
        return
    for format in ("machine", "text"):
        emit_report(report, format)
