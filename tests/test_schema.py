"""docs/config.schema.json against the configs the CLI accepts and rejects."""

import json
from pathlib import Path

import pytest

from blocklie.cli import main
from test_cli import CONFIGS, EXIT_CASES, write_config

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "config.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

TABLE_MODE = {
    "job": "axioms",
    "table": [
        {"a": 0, "b": 1, "out": [{"grade": 1, "coeff": "2"}]},
        {"a": 1, "b": 0, "out": []},
    ],
    "grades": ["0", "1"],
}
CASES = {name: payload for name, _, payload in EXIT_CASES}
ACCEPTED = [(path.name, json.loads(path.read_text())) for path in CONFIGS]
ACCEPTED += [(name, payload) for name, status, payload in EXIT_CASES if status in (0, 1)]
ACCEPTED.append(("table_mode", TABLE_MODE))
REJECTED = [
    (name, payload)
    for name, payload in CASES.items()
    if name.startswith("unread_") or name.endswith("_null")
]
REJECTED += [
    ("table_mode_with_p", {**TABLE_MODE, "p": "1"}),
    ("block_closure_theta", {**CASES["closure_ok"], "theta": 1}),
    ("Ba_module_b", {**CASES["modcheck_ok"], "b": "1"}),
    ("classify_horizon_over_limit", CASES["classify_horizon_over_limit"]),
    ("singular_max_level_over_limit", CASES["singular_max_level_over_limit"]),
    ("singular_kernel_over_limit", CASES["singular_kernel_over_limit"]),
    ("affinize_mutations_over_limit", CASES["affinize_mutations_over_limit"]),
    ("axioms_table_grid_over_limit", CASES["axioms_table_grid_over_limit"]),
    ("blockcheck_jacobi_grid_over_limit", CASES["blockcheck_jacobi_grid_over_limit"]),
    ("axioms_duplicate_grades", CASES["axioms_duplicate_grades"]),
    ("axioms_short_grid", CASES["axioms_short_grid"]),
    ("affinize_short_level_grid", CASES["affinize_short_level_grid"]),
    ("blockcheck_short_jacobi_grid", CASES["blockcheck_short_jacobi_grid"]),
    (
        "blockcheck_four_cocycle_grades",
        {**CASES["blockcheck_short_cocycle_grid"], "cocycle_grades": ["-2", "-1", "0", "1"]},
    ),
]


def test_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("name,payload", ACCEPTED, ids=[case[0] for case in ACCEPTED])
def test_accepted_config_validates(name, payload):
    VALIDATOR.validate(payload)


@pytest.mark.parametrize("name,payload", REJECTED, ids=[case[0] for case in REJECTED])
def test_unread_field_fails_validation(tmp_path, capsys, name, payload):
    assert not VALIDATOR.is_valid(payload)
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    capsys.readouterr()
