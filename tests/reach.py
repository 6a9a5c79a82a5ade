"""The lines of `src/blocklie`, and the conditions in it, that no job runs
both ways.

`python tests/reach.py` runs every job below in this process, under a
`sys.settrace` tracer limited to the package and installed before
`import blocklie.cli`, so the module bodies count too.  The tracer turns off
line events and turns on opcode events in each frame of the package, and
records which instruction ran right after which in each code object.  The
script prints each executable line that no job ran and no exemption covers,
as `file:line: source`; each condition that ran but was always true or
always false, as `file:line:col: condition never true: source` (or `never
false`); and then each allowlist entry that exempts none of these.  It
prints nothing, and exits 0, when every line runs and every condition goes
both ways in some job; otherwise it exits 1.  `tests/test_reach.py` asserts
the first.

The jobs: every archived config (`golden/`, `tests/data/`) and block 0 of
seed 1 of each benchmark workload (`perfbench/workloads.make_block`), each
through `load_config -> run_job -> emit_report` in both formats; and through
`cli.main`, every case of `tests/test_cli.EXIT_CASES` and the `CLI_CASES`
table below, which holds the input paths that only single tests reach.

A line is executable when a code object compiled from its module lists it
in `co_lines()`, searched recursively, and it ran when one of its
instructions did.  A condition is the value that a conditional jump tests
(an opcode whose name holds "JUMP" and "IF"): the test of an `if`, `elif`
or `while`, a clause of `and`/`or` or of a chained comparison, the test of
a conditional expression and a comprehension's `if`.  The jumps are grouped
by the source positions (`co_positions()`) of the value they test, so a
`while` test compiled twice is one condition.  A condition was true when
one of its jumps went the way its opcode takes on a true value, and false
likewise.  The jumps that match an exception to an `except` clause, or
leave a `with` block, are not conditions of the source.

Two kinds of line are exempt: the bodies of the functions that the
benchmark's tracer counts (`perfbench/tracer.COUNTED`), which the program
keeps for the tracer until the benchmark drops them; and the statements that
`ALLOWLIST` names by their function and source text, guards that no input
reaches.  A one-way condition is exempt when it starts on an exempt line, or
when an instruction it never jumped to starts one: an allowlisted `raise`
exempts the guard in front of it.  A line or condition that some input could
reach gets a case here, not an allowlist entry.

The gate runs on CPython 3.11, as tier-1 does.  Under 3.12.1 a frame that
turns on opcode events in its call event gets none, and under 3.13.0 the
first call of each function gets none; 3.10 has no `co_positions()`.
"""

from __future__ import annotations

import ast
import contextlib
import dis
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
    (
        "cli._run_affinize",
        "positive = positive and",
        "defect detector",
        "a Witt product is Novikov and its affinization is Lie for every p, mu and q",
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
    (
        "engine.Window.contains",
        "return (",
        "documented contract",
        "element parsing refuses a negative level",
    ),
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
    (
        "scalars.Poly.__str__.monomial",
        "return ",
        "invariant",
        "a printed Poly is the residual of a perturbed Novikov product, linear in each parameter",
    ),
    ("scalars.as_fraction", "raise ValueError(", "invariant", "no coefficient read is symbolic"),
    (
        "scalars.as_fraction",
        "return value if",
        "documented contract",
        "an int is a rational scalar too, though every coefficient a job reads is a Fraction",
    ),
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
        "if x is not CENTRAL and",
        "invariant",
        "no closure's rule has a nonzero level offset, so every window level lands",
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
AXIOMS = {"job": "axioms", "p": "1"}
PERTURB = {"target": "main", "exponents": [0, 1], "delta": "-1"}
CLI_CASES = [
    ("symbolic_where_a_number_is_needed", {**CLASSIFY, "p": "symbolic"}, []),
    ("rational_as_a_json_integer", {**CLASSIFY, "q": 1}, []),
    ("not_a_rational", {**CLASSIFY, "q": "one"}, []),
    ("missing_field", {"job": "classify", "p": "2", "q": "1"}, []),
    ("not_an_integer", {**CLASSIFY, "horizon": "10"}, []),
    ("empty_list", {**CLOSURE, "generators": []}, []),
    ("empty_element_text", {**CLOSURE, "generators": [""]}, []),
    ("unknown_choice", {**CLOSURE, "algebra": "witt"}, []),
    ("element_not_a_string", {**CLOSURE, "generators": [3]}, []),
    ("integers_not_a_list", {**AXIOMS, "perturb": {**PERTURB, "exponents": 1}}, []),
    ("integers_of_the_wrong_count", {**AXIOMS, "perturb": {**PERTURB, "exponents": [1]}}, []),
    ("zero_closure_in_text", {**CLOSURE, "generators": ["0"]}, ["--format", "text"]),
    ("zero_closure_in_machine_format", {**CLOSURE, "generators": ["0"]}, ["--format", "machine"]),
    ("zero_q", {"job": "blockcheck", "p": "1", "q": "0"}, []),
    ("weight_without_labels_or_qp", {**CLASSIFY, "weight": {"central": "0"}}, []),
    ("labels_short_of_horizon", {**CLASSIFY, "weight": {"labels": ["1", "2"]}}, []),
    ("zero_labels", {**CLASSIFY, "p": "0", "horizon": 4, "weight": {"labels": ["0"] * 5}}, []),
    ("zero_qp_polynomial", {**CLASSIFY, "weight": {"qp": [{"poly": ["0"], "base": "1"}]}}, []),
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
            "perturb": PERTURB,
        },
        [],
    ),
    ("table_with_family_field", {**AXIOMS, "table": [{"a": 0, "b": 0}]}, []),
    (
        # two generators, so the closure forms pairs on a window without c
        "window_without_grade_0",
        {
            **CLOSURE,
            "window": {"grade_min": 1, "grade_max": 3, "level_max": 0},
            "generators": ["L[1,0]", "L[2,0]"],
        },
        [],
    ),
    (
        # the guided pass forms a row whose pivot is a later column of S
        "guided_pair_on_a_formed_pivot",
        {
            **CLOSURE,
            "p": "2",
            "window": {"grade_min": -2, "grade_max": 2, "level_max": 0},
            "generators": ["L[0,0]", "L[-2,0] - 2*L[-1,0]", "L[2,0]"],
        },
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
        # seed 15 draws delta * b^2 on the main term; at p = mu = q = 0 the
        # grid's first label L[-2,0] (grades -2..2, level 0 = -q) is central
        # in the mutated affinization, so every triple holding it passes, and
        # the scan's witness lies past the rotated triples of the next label
        "jacobi_witness_past_a_rotated_triple",
        {"job": "affinize", "p": "0", "mu": "0", "q": "0", "mutations": {"count": 1, "seed": 15}},
        [],
    ),
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


def offset_lines(code) -> dict[int, int]:
    """The source line of each instruction offset of `code`; line 0 or None
    marks compiler-made instructions that belong to no source line."""
    return {
        offset: line
        for start, end, line in code.co_lines()
        if line
        for offset in range(start, end, 2)
    }


def executable_lines() -> set[tuple[str, int]]:
    """(file, line) of each executable line of the package."""
    return {
        (str(path), line)
        for path in SRC.glob("*.py")
        for code in code_objects(compile(path.read_text(), str(path), "exec"))
        for line in offset_lines(code).values()
    }


def traced(run) -> dict:
    """For each code object of the package that a frame ran while `run()`
    did, the pairs (offset, next offset) of the instructions that ran one
    after the other in one frame.  The first offset is None for a frame's
    first instruction, and for each instruction a generator resumes at."""
    arcs: dict = {}
    prefix = str(SRC) + "/"

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        ran = arcs.setdefault(frame.f_code, set())
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "opcode":
                ran.add((last, frame.f_lasti))
                last = frame.f_lasti
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
            elif isinstance(config, bytes):
                path.write_bytes(config)
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
            out |= {(code.co_filename, line) for line in offset_lines(code).values()}
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


# instructions whose conditional jump that follows is the machinery of an
# except clause or a with statement, not a condition of the source
MACHINERY = {"CHECK_EXC_MATCH", "CHECK_EG_MATCH", "WITH_EXCEPT_START"}


def conditional_jumps(code, lines: list[str]):
    """(the offset a trace event reports for it, its fall-through offset, its
    target offset, the condition's truth when it jumps, the condition's
    positions) of each conditional jump of `code` that tests a condition of
    the source.  `lines` is the source of the module `code` was compiled from.

    The condition is the value the jump tests, whose positions are those of
    the instruction that computed it; a `while` test compiled twice is one
    condition, and each clause of an `and`/`or` chain is its own.  A jump on
    `None` tests the comparison `x is None` or `x is not None` whose
    positions it carries."""
    instructions = list(dis.get_instructions(code))
    for i, jump in enumerate(instructions):
        if "JUMP" not in jump.opname or "IF" not in jump.opname:
            continue
        first = i  # the trace event comes at a jump's first EXTENDED_ARG
        while instructions[first - 1].opname == "EXTENDED_ARG":
            first -= 1
        tested = instructions[first - 1]
        if tested.opname in MACHINERY:
            continue
        if "NONE" in jump.opname:
            positions = jump.positions
            (op,) = ast.parse(f"({source_of(lines, positions)})", mode="eval").body.ops
            truth = ("NOT_NONE" in jump.opname) == isinstance(op, ast.IsNot)
        else:
            positions = tested.positions
            truth = "TRUE" in jump.opname
        yield instructions[first].offset, instructions[i + 1].offset, jump.argval, truth, positions


def source_of(lines: list[str], positions) -> str:
    """The source text at `positions`, whose columns count UTF-8 bytes, on one
    line."""
    text = "\n".join(lines[positions.lineno - 1 : positions.end_lineno]).encode()
    start = positions.col_offset
    end = len(text) - len(lines[positions.end_lineno - 1].encode()) + positions.end_col_offset
    return " ".join(text[start:end].decode().split())


def one_way_conditions(arcs) -> dict[tuple, tuple[bool, set[int]]]:
    """Each source condition that ran and was always true or always false,
    keyed by (file, positions), as (the truth it never had, the lines that
    exempt it: its first, and those that the successors of that truth start
    on)."""
    truths: dict[tuple, set[bool]] = {}
    starts: dict[tuple, dict[bool, set[int]]] = {}
    for code, ran in arcs.items():
        after: dict[int | None, set[int]] = {}
        for offset, next_offset in ran:
            after.setdefault(offset, set()).add(next_offset)
        lines = offset_lines(code)
        source = Path(code.co_filename).read_text().splitlines()
        for offset, fall, target, on_jump, positions in conditional_jumps(code, source):
            if offset not in after:
                continue
            key = (code.co_filename, positions)
            truths.setdefault(key, set()).update(
                on_jump if next_offset != fall else not on_jump for next_offset in after[offset]
            )
            successors = starts.setdefault(key, {True: set(), False: set()})
            successors[on_jump].add(lines.get(target))
            successors[not on_jump].add(lines.get(fall))
    out = {}
    for (path, positions), seen in truths.items():
        if len(seen) == 1:
            never = not seen.pop()
            out[path, positions] = never, {positions.lineno, *starts[path, positions][never]}
    return out


def unreached() -> list[str]:
    """The gate's findings: each unreached line and each one-way condition
    that no exemption covers, in file, line and column order, then each
    allowlist entry that exempts none."""
    arcs = traced(run_jobs)
    ran = set()
    for code, pairs in arcs.items():
        lines = offset_lines(code)
        ran |= {(code.co_filename, lines[offset]) for _, offset in pairs if offset in lines}
    counted = counted_lines()
    gaps = executable_lines() - ran - counted
    conditions = one_way_conditions(arcs)
    untaken = {(path, line) for (path, _), (_, lines) in conditions.items() for line in lines}
    exempt, stale = set(counted), []
    for function, text, _, _ in ALLOWLIST:
        module, name = function.split(".", 1)
        path = str(SRC / f"{module}.py")
        covered = {(path, line) for line in statement_lines(path, name, text)}
        if not covered & (gaps | untaken):
            stale.append(f"allowlist: {function}: {text!r} exempts no unreached line or condition")
        exempt |= covered
    findings = [
        (Path(path), line, 0, Path(path).read_text().splitlines()[line - 1].strip())
        for path, line in gaps - exempt
    ]
    for (path, positions), (truth, lines) in conditions.items():
        if not exempt & {(path, line) for line in lines}:
            text = source_of(Path(path).read_text().splitlines(), positions)
            condition = f"condition never {str(truth).lower()}: {text}"
            findings.append((Path(path), positions.lineno, positions.col_offset + 1, condition))
    return [
        f"{path.relative_to(ROOT)}:{line}:{f'{col}:' if col else ''} {text}"
        for path, line, col, text in sorted(findings)
    ] + stale


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))
    found = unreached()
    for finding in found:
        print(finding)
    sys.exit(1 if found else 0)
