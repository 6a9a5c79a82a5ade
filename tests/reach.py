"""The lines of `src/blocklie`, and the arms of its `if` statements, that no
job runs.

`python tests/reach.py` runs every job below in this process, under a
`sys.settrace` tracer limited to the package and installed before
`import blocklie.cli`, so the module bodies count too.  The tracer records
arcs: which line ran next in the same frame, or that the frame returned.  The
script prints each executable line that no job ran and no exemption covers,
as `file:line: source`; each arm of an `if` or `elif` whose test ran that no
job took, as `file:line: if never true: source` (or `never false`); and then
each allowlist entry that exempts none of these.  It prints nothing, and
exits 0, when every line and arm runs in some job; otherwise it exits 1.
`tests/test_reach.py` asserts the first.

The jobs: every archived config (`golden/`, `tests/data/`) and block 0 of
seed 1 of each benchmark workload (`perfbench/workloads.make_block`), each
through `load_config -> run_job -> emit_report` in both formats; and through
`cli.main`, every case of `tests/test_cli.EXIT_CASES` and the `CLI_CASES`
table below, which holds the input paths that only single tests reach.

A line is executable when a code object compiled from its module lists it
in `co_lines()`, searched recursively.  The true arm of an `if` is taken
when a line of its body's first statement ran.  The false arm is taken when
a line of its `else` or `elif` branch ran, or, without one, when the frame
went from a line of the test to a line outside the body, or returned.  An arm
starts on its branch's first line; a false arm without a branch starts on
the `if`'s own line.  Two kinds of line are exempt, with the arms that start
on them: the bodies of the functions that the benchmark's tracer counts
(`perfbench/tracer.COUNTED`), which the program keeps for the tracer until
the benchmark drops them; and the statements that `ALLOWLIST` names by their
function and source text, guards that no input reaches.  An entry that names
an `if` exempts both its arms.  A line or arm that some input could reach
gets a case here, not an allowlist entry.

The arm check sees `if` statements only.  It is blind to the arms of a
conditional expression (`a if c else b`, and the `if` of a comprehension), to
`and`/`or` within a line, and to whether a `while` loop's test was ever true
or ever false.
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

# (module.function, the statement's source text as it starts, kind, reason):
# each exempts a statement with everything nested in it, or an except clause.
# The kinds: a defect detector raises only on a defect in the program; an
# invariant guards a condition that the program's own values keep; a
# documented contract is a precondition that the README and tests pin; and
# COUNTED-only code runs only in a function that `perfbench/tracer.COUNTED`
# names
ALLOWLIST = [
    ("block._proved", "raise ValueError(", "defect detector", "B(p,q)'s theorems hold for all p, q"),
    ("block._constant", "raise ValueError(", "invariant", "the Laurent offsets are constant"),
    (
        "block._laurent_proof",
        "proof.append(",
        "defect detector",
        "the realization's residue lies at exponent D(i + j) for every p and q",
    ),
    ("cli.main", "except Exception as exc:", "defect detector", "exit 3: no input raises one"),
    (
        "engine.check_identities",
        'raise ValueError("an',
        "defect detector",
        "no job checks a rule with a cocycle",
    ),
    (
        "engine.check_identities",
        'raise ValueError("the proof',
        "defect detector",
        "load sizes every grid by grid_needs, so a failed proof's scan finds its witness",
    ),
    ("engine.index_ring", "raise ValueError(", "invariant", "p, q and mu share no index name"),
    ("engine.BracketRule.__new__", "raise ValueError(", "invariant", "every rule has terms or a pair"),
    ("engine.grid_identity_check", "raise ValueError(", "invariant", "every caller asks for jacobi"),
    ("scalars.PolyRing.__init__", "raise ValueError(", "invariant", "the program names every symbol"),
    (
        "scalars.PolyRing.__repr__",
        "return ",
        "invariant",
        "only the SymbolTableError guards print a ring",
    ),
    ("scalars.PolyRing.index", "raise SymbolTableError(", "invariant", "every symbol is declared"),
    ("scalars.Poly._same_ring", "raise SymbolTableError(", "invariant", "index_ring gives one ring"),
    (
        "scalars.Poly.__pow__",
        "raise ValueError(",
        "invariant",
        "every exponent is an int >= 0; a negative one would loop forever",
    ),
    ("scalars.as_fraction", "raise ValueError(", "invariant", "no coefficient read is symbolic"),
    (
        "engine._integer_row",
        "raise ClosureError(",
        "documented contract",
        "load refuses labels outside the window",
    ),
    (
        "engine._integer_row",
        "except ValueError:",
        "documented contract",
        "load admits no symbolic coefficient",
    ),
    (
        "engine._integer_kernel",
        "raise ClosureError(",
        "documented contract",
        "a closure's p and q cannot be symbolic",
    ),
    (
        "engine.subalgebra_closure",
        "raise ClosureError(",
        "documented contract",
        "every closure's rule has terms",
    ),
    ("novikov.affinize", "raise ValueError(", "documented contract", "the Witt product has terms"),
    (
        "engine._terms_pair.pair",
        "if k_monomials",
        "COUNTED-only",
        "only block.basis_bracket reads a cocycle's pair",
    ),
    ("engine.extend_bilinearly", "continue", "COUNTED-only", "only engine.bracket_apply brackets c"),
    (
        "engine.extend_bilinearly",
        "if iy is not CENTRAL",
        "COUNTED-only",
        "only engine.bracket_apply brackets c",
    ),
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
    ("zero_closure_in_text", {**CLOSURE, "generators": ["0"]}, ["--format", "text"]),
    ("zero_closure_in_machine_format", {**CLOSURE, "generators": ["0"]}, ["--format", "machine"]),
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
        "window_without_grade_0",
        {**CLOSURE, "window": {"grade_min": 1, "grade_max": 2, "level_max": 0}},
        [],
    ),
    (
        "kernel_column_free_of_a_pivot_row",
        {
            "job": "singular",
            "p": "0",
            "q": "1",
            "max_level": 2,
            "horizon": 1,
            "weight": {"labels": ["1", "0", "0", "0"]},
        },
        [],
    ),
    (
        # (t - 1)^7 passes the degree cap floor(10 / 2): a generator, no certificate
        "generator_past_the_degree_cap",
        {**CLASSIFY, "p": "0", "weight": {"qp": [{"poly": ["1"] * 7, "base": "1"}]}},
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


# an arc's end when the frame returns; no source line is 0
RETURN = 0


def traced(run) -> set[tuple[str, int | None, int]]:
    """(file, line, next) of each arc that a frame of the package takes while
    `run()` does: `next` ran right after `line` in one frame, or is RETURN
    when the frame returned after it.  `line` is None for a frame's first
    line, and for the first line after an exception."""
    arcs: set[tuple[str, int | None, int]] = set()
    prefix = str(SRC) + "/"

    def calls(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                arcs.add((path, last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                arcs.add((path, last, RETURN))
            else:  # an exception: what runs next does not follow from `last`
                last = None
            return local

        return local

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return arcs


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


def lines_of(node) -> range:
    return range(node.lineno, node.end_lineno + 1)


def untaken_arms(arcs) -> dict[tuple[str, int], tuple[int, str]]:
    """Each arm of an `if` whose test ran that no arc takes, keyed by (file,
    the line the arm starts on: its body's first, its `else` or `elif`
    branch's first, or the `if`'s own for a false arm without a branch), as
    (the `if`'s line, `if never true|false: source`)."""
    out = {}
    for path in SRC.glob("*.py"):
        after: dict[int | None, set[int]] = {}
        for file, line, next_line in arcs:
            if file == str(path):
                after.setdefault(line, set()).add(next_line)
        ran = set().union(*after.values())
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.If):
                continue
            test = range(node.lineno, node.test.end_lineno + 1)
            if not ran.intersection(test):
                continue
            body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
            if node.orelse:
                false_start = node.orelse[0].lineno
                false_taken = ran.intersection(lines_of(node.orelse[0]))
            else:
                false_start = node.lineno
                false_taken = any(
                    next_line not in test and next_line not in body
                    for line in test
                    for next_line in after.get(line, ())
                )
            arms = [
                ("true", node.body[0].lineno, ran.intersection(lines_of(node.body[0]))),
                ("false", false_start, false_taken),
            ]
            text = source.splitlines()[node.lineno - 1].strip()
            for arm, start, taken in arms:
                if not taken:
                    out[(str(path), start)] = node.lineno, f"if never {arm}: {text}"
    return out


def unreached() -> list[str]:
    """The gate's findings: each unreached line and each untaken `if` arm that
    no exemption covers, in file and line order, then each allowlist entry
    that exempts none."""
    arcs = traced(run_jobs)
    ran = {(path, line) for path, _, line in arcs if line != RETURN}
    counted = counted_lines()
    gaps = {
        (path, line): (line, Path(path).read_text().splitlines()[line - 1].strip())
        for path, line in executable_lines() - ran - counted
    }
    arms = {key: arm for key, arm in untaken_arms(arcs).items() if key not in counted}
    exempt, stale = set(), []
    for function, text, _, _ in ALLOWLIST:
        module, name = function.split(".", 1)
        path = str(SRC / f"{module}.py")
        covered = {(path, line) for line in statement_lines(path, name, text)}
        if not covered & (gaps.keys() | arms.keys()):
            stale.append(f"allowlist: {function}: {text!r} exempts no unreached line or arm")
        exempt |= covered
    findings = sorted(
        (Path(key[0]), line, text)
        for found in (gaps, arms)
        for key, (line, text) in found.items()
        if key not in exempt
    )
    return [f"{path.relative_to(ROOT)}:{line}: {text}" for path, line, text in findings] + stale


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))
    found = unreached()
    for finding in found:
        print(finding)
    sys.exit(1 if found else 0)
