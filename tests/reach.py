"""The lines of `src/blocklie` that no job runs.

`python tests/reach.py` runs every job below in this process, under a
`sys.settrace` line tracer limited to the package and installed before
`import blocklie.cli`, so the module bodies count too.  It prints each
executable line that no job ran and no exemption covers, as
`file:line: source`, and then each allowlist entry that covers no such line.
It prints nothing when every line runs in some job; `tests/test_reach.py`
asserts that.

The jobs: every archived config (`golden/`, `tests/data/`) and block 0 of
seed 1 of each benchmark workload (`perfbench/workloads.make_block`), each
through `load_config -> run_job -> emit_report` in both formats; and through
`cli.main`, every case of `tests/test_cli.EXIT_CASES` and the `CLI_CASES`
table below, which holds the input paths that only single tests reach.

A line is executable when a code object compiled from its module lists it
in `co_lines()`, searched recursively.  Two kinds of line are exempt: the
bodies of the functions that the benchmark's tracer counts
(`perfbench/tracer.COUNTED`), which the program keeps for the tracer until
the benchmark drops them; and the statements that `ALLOWLIST` names by their
function and source text, guards that only a planted defect can reach.  A
line that some input could reach gets a case here, not an allowlist entry.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blocklie"
PERFBENCH = ROOT / "perfbench"

# (module.function, the statement's source text as it starts, reason): each
# exempts a statement with everything nested in it, or an except clause
ALLOWLIST = [
    ("block._proved", "raise ValueError(", "B(p,q)'s theorems hold for every p and q"),
    (
        "block._laurent_proof",
        "proof.append(",
        "the realization's residue lies at exponent D(i + j) for every p and q",
    ),
    ("cli.emit_report", "raise ValueError(", "the CLI offers only the text and machine formats"),
    ("cli.main", "except Exception as exc:", "exit 3: no input raises an internal error"),
    ("engine.Window.__new__", 'raise ValueError("level_max', "load reads level_max >= 0"),
    ("engine.index_ring", "raise ValueError(", "the parameters p, q and mu share no index name"),
    ("engine.BracketRule.__new__", "raise ValueError(", "every rule built gets terms or a pair"),
    (
        "engine._terms_pair.pair",
        "if k_monomials",
        "only block.basis_bracket, which perfbench/tracer.py counts, reads a cocycle's pair",
    ),
    (
        "engine.extend_bilinearly",
        "continue",
        "only engine.bracket_apply, which perfbench/tracer.py counts, brackets c",
    ),
    ("engine.check_identities", 'raise ValueError("an', "no job checks a rule with a cocycle"),
    (
        "engine.check_identities",
        'raise ValueError("the proof',
        "load sizes every grid by grid_needs, so a failed proof's scan finds its witness",
    ),
    ("engine.grid_identity_check", "raise ValueError(", "every caller asks for jacobi"),
    ("engine._integer_row", "raise ClosureError(", "load refuses labels outside the window"),
    ("engine._integer_row", "except ValueError:", "load admits no symbolic coefficient"),
    ("engine._integer_kernel", "raise ClosureError(", "a closure's p and q cannot be symbolic"),
    ("engine.subalgebra_closure", "raise ClosureError(", "every closure's rule has terms"),
    ("hweight.qp_annihilator", "raise ValueError(", "its one caller skips the zero generator"),
    (
        "hweight.detect_linear_recurrence",
        "raise ValueError(",
        "load reads horizon >= 1, so a series has two coefficients",
    ),
    ("intermediate.IntermediateKind.__init__", "raise ValueError(", "load reads family and b"),
    ("novikov.WittNovikovParams.__new__", "raise ValueError(", "load reads theta as an int"),
    ("novikov.perturbed_witt_rule", "raise ValueError(", "load reads target and exponents"),
    ("novikov.affinize", "raise ValueError(", "the Witt product has terms"),
    ("scalars.PolyRing.__init__", "raise ValueError(", "the program names every symbol"),
    (
        "scalars.PolyRing.__repr__",
        "return ",
        "only the SymbolTableError guards print a ring",
    ),
    ("scalars.PolyRing.index", "raise SymbolTableError(", "every symbol read is declared"),
    ("scalars.Poly._same_ring", "raise SymbolTableError(", "index_ring gives one ring"),
    ("scalars.Poly.__pow__", "raise ValueError(", "every exponent is an int >= 0"),
    ("scalars.Poly.compose.image", "raise SymbolTableError(", "every image is in the ring"),
    ("scalars.Packed.constant", "raise ValueError(", "the Laurent offsets are constant"),
    ("scalars.as_fraction", "raise ValueError(", "load admits no symbolic coefficient"),
]

# (name, config: a payload, raw text, or None for no file; extra argv, with
# {dir} for a writable scratch folder): the paths that no archived config,
# benchmark block or exit case reaches
CLASSIFY = {
    "job": "classify",
    "p": "2",
    "q": "1",
    "horizon": 10,
    "weight": {"qp": [{"poly": ["2"], "base": "1"}], "central": "0"},
}
CLOSURE = {
    "job": "closure",
    "algebra": "block",
    "p": "1",
    "q": "1",
    "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
    "generators": ["L[1,0]"],
}
CLI_CASES = [
    ("symbolic_where_a_number_is_needed", {**CLASSIFY, "p": "symbolic"}, []),
    ("rational_as_a_json_integer", {**CLASSIFY, "q": 1}, []),
    ("not_a_rational", {**CLASSIFY, "q": "one"}, []),
    ("missing_field", {"job": "classify", "p": "2", "q": "1"}, []),
    ("not_an_integer", {**CLASSIFY, "horizon": "10"}, []),
    ("empty_list", {**CLOSURE, "generators": []}, []),
    ("empty_element_text", {**CLOSURE, "generators": [""]}, []),
    ("unknown_choice", {**CLOSURE, "algebra": "witt"}, []),
    ("zero_q", {"job": "blockcheck", "p": "1", "q": "0"}, []),
    ("weight_without_labels_or_qp", {**CLASSIFY, "weight": {"central": "0"}}, []),
    ("labels_short_of_horizon", {**CLASSIFY, "weight": {"labels": ["1", "2"]}}, []),
    ("zero_labels", {**CLASSIFY, "p": "0", "horizon": 4, "weight": {"labels": ["0"] * 5}}, []),
    (
        "unrealizable_qp",
        {**CLASSIFY, "p": "3", "q": "4", "weight": {"qp": [{"poly": ["1"], "base": "1"}]}},
        [],
    ),
    (
        "crosscheck_routes_differ",
        {
            "job": "crosscheck",
            "p": "1",
            "q": "-1/7",
            "max_level": 2,
            "horizon": 5,
            "weight": {"qp": [{"poly": ["3"], "base": "2"}]},
        },
        [],
    ),
    (
        "product_whose_terms_cancel",
        {
            "job": "axioms",
            "p": "1",
            "mu": "-1",
            "perturb": {"target": "main", "exponents": [0, 1], "delta": "-1"},
        },
        [],
    ),
    ("table_with_family_field", {"job": "axioms", "p": "1", "table": [{"a": 0, "b": 0}]}, []),
    (
        "b_outside_aab",
        {
            "job": "modcheck",
            "p": "2",
            "q": "3/2",
            "family": "Ba",
            "a": "1/3",
            "b": "1",
            "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
            "weight_range": [-1, 1],
        },
        [],
    ),
    ("unreadable_config_path", None, []),
    ("config_not_json", '{\n  "job": "classify",\n  oops\n}\n', []),
    ("unknown_job", {"job": "frobnicate"}, []),
    ("seed_without_mutations", {"job": "affinize", "p": "2", "q": "1"}, ["--seed", "3"]),
    (
        "seed_for_mutations",
        {"job": "affinize", "p": "2", "q": "1", "mutations": {"count": 1}},
        ["--seed", "5"],
    ),
    ("report_to_a_file", CLASSIFY, ["--out", "{dir}/report.json"]),
    ("unwritable_report_path", CLASSIFY, ["--out", "{dir}/no/dir/report.json"]),
]


def code_objects(code):
    """`code` and every code object nested in it."""
    stack = [code]
    while stack:
        code = stack.pop()
        yield code
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))


def line_numbers(code) -> set[int]:
    # line 0 marks compiler-made instructions that belong to no source line
    return {line for _, _, line in code.co_lines() if line}


def executable_lines() -> set[tuple[str, int]]:
    """(file, line) of each executable line of the package."""
    return {
        (str(path), line)
        for path in SRC.glob("*.py")
        for code in code_objects(compile(path.read_text(), str(path), "exec"))
        for line in line_numbers(code)
    }


def traced(run) -> set[tuple[str, int]]:
    """(file, line) of each line of the package that runs while `run()` does."""
    ran: set[tuple[str, int]] = set()
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return ran


def load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exit_cases() -> list[tuple]:
    """`tests/test_cli.EXIT_CASES`, evaluated from its source alone, so that
    no test module's code runs under the tracer."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    (value,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "EXIT_CASES"
    )
    return eval(compile(ast.Expression(value), "test_cli.py", "eval"), {})


def run_jobs() -> None:
    """Run every job of the gate, importing the program first; their outputs
    are discarded."""
    from blocklie import cli

    configs = sorted(
        path
        for directory in (ROOT / "golden", ROOT / "tests" / "data")
        for path in directory.glob("*.json")
        if not path.name.endswith(".report.json")
    )
    workloads = load_by_path("perfbench_workloads", PERFBENCH / "workloads.py")
    blocks = [
        job.config
        for workload in sorted(workloads.WORKLOADS)
        for job in workloads.make_block(workload, 1, 0)
    ]
    cases = [(name, payload, ["--format", "machine"]) for name, _, payload in exit_cases()]
    quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
    with tempfile.TemporaryDirectory() as scratch, quiet[0], quiet[1]:
        folder = Path(scratch)
        for config in [*configs, *blocks]:
            if not isinstance(config, Path):
                (folder / "job.json").write_text(json.dumps(config))
                config = folder / "job.json"
            report = cli.run_job(cli.load_config(str(config)))
            for fmt in ("machine", "text"):
                cli.emit_report(report, fmt)

        for name, config, argv in [*cases, *CLI_CASES]:
            path = folder / f"{name}.json"
            if isinstance(config, str):
                path.write_text(config)
            elif config is not None:
                path.write_text(json.dumps(config))
            cli.main(["--config", str(path), *(arg.replace("{dir}", scratch) for arg in argv)])

        # `python -m blocklie.cli`, whose last line calls main
        argv, sys.argv = sys.argv, ["blocklie", "--config", str(configs[0])]
        try:
            with contextlib.suppress(SystemExit):
                runpy.run_module("blocklie.cli", run_name="__main__")
        finally:
            sys.argv = argv


def counted_lines() -> set[tuple[str, int]]:
    """The lines of the functions that the benchmark's tracer counts."""
    tracer = load_by_path("perfbench_tracer", PERFBENCH / "tracer.py")
    out = set()
    for module_name, class_name, attr in tracer.COUNTED.values():
        owner = importlib.import_module(f"blocklie.{module_name}")
        function = getattr(owner, attr) if class_name is None else vars(getattr(owner, class_name))[attr]
        for code in code_objects(function.__code__):
            out |= {(code.co_filename, line) for line in line_numbers(code)}
    return out


def statement_lines(path: str, function: str, text: str) -> set[int]:
    """The lines of each statement, or except clause, of `function` (a
    qualified name in the module at `path`) whose source starts with `text`."""
    source = Path(path).read_text()
    lines = source.splitlines()
    out: set[int] = set()

    def visit(node, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}".lstrip(".")
            elif name == function and isinstance(child, (ast.stmt, ast.excepthandler)):
                first = lines[child.lineno - 1][child.col_offset :]
                if first.startswith(text):
                    out.update(range(child.lineno, child.end_lineno + 1))
            visit(child, inner)

    visit(ast.parse(source), "")
    return out


def unreached() -> list[str]:
    """The gate's findings: each unreached line that no exemption covers, as
    `file:line: source`, then each allowlist entry that covers none."""
    missed = executable_lines() - traced(run_jobs) - counted_lines()
    findings = []
    for function, text, _ in ALLOWLIST:
        module, name = function.split(".", 1)
        path = str(SRC / f"{module}.py")
        covered = {(path, line) for line in statement_lines(path, name, text)}
        if not covered & missed:
            findings.append(f"allowlist: {function}: {text!r} covers no unreached line")
        missed -= covered
    out = []
    for path, line in sorted(missed):
        source = Path(path).read_text().splitlines()[line - 1].strip()
        out.append(f"{Path(path).relative_to(ROOT)}:{line}: {source}")
    return out + findings


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))
    for finding in unreached():
        print(finding)
