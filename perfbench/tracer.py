"""Spans and work counters around the program's public functions.

The tracer wraps functions from the outside: each wrapped name is rebound in
every `blocklie` module namespace that binds it (`novikov` binds
`engine.grid_identity_check`, the package re-exports most names), and methods
are rebound on their class.  Coarse functions, at most a few hundred calls per
job, get spans; hot leaves get a call counter only, so a traced run stays
cheap.  A span's self time is its duration minus the time its child spans
cover.  Spans and counters are held in memory and written out when the run
ends.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> functions that get a span
SPANS = {
    "cli": ("load_config", "run_job", "emit_report"),
    "hweight": ("detect_linear_recurrence", "singular_vector_solve", "labels_from_quasipolynomial"),
    "engine": ("subalgebra_closure", "membership", "grid_identity_check"),
    "novikov": ("novikov_axiom_check", "theorem22_probe"),
    "block": ("laurent_realization_check", "virasoro_embedding_check", "cocycle_jacobi_check"),
    "intermediate": ("module_axiom_check",),
}
# metric name -> (module, class or None, attribute): hot leaves, counted only
COUNTED = {
    "engine.bracket_apply": ("engine", None, "bracket_apply"),
    "engine.Element.add": ("engine", "Element", "__add__"),
    "novikov.witt_novikov_product": ("novikov", None, "witt_novikov_product"),
    "block.basis_bracket": ("block", None, "basis_bracket"),
    "intermediate.act": ("intermediate", None, "act"),
    "scalars.Poly.mul": ("scalars", "Poly", "__mul__"),
    "scalars.Poly.add": ("scalars", "Poly", "__add__"),
}
# self times whose sum is the workload split the benchmark asserts
SHARES = {
    "share.hweight.detect_linear_recurrence": ("hweight.detect_linear_recurrence",),
    "share.engine.subalgebra_closure": ("engine.subalgebra_closure",),
    "share.verify_checks": (
        "engine.grid_identity_check",
        "novikov.novikov_axiom_check",
        "intermediate.module_axiom_check",
    ),
}

_INTEGER = re.compile(rb"\d+")


def _rebind(original, wrapper) -> None:
    """Point every blocklie module attribute bound to `original` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name == "blocklie" or name.startswith("blocklie."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


class Tracer:
    """Spans, call counts and work counters of one traced batch.

    `install()` wraps the program in place; set `job` to the index of the job
    about to run so spans carry it; `metrics()` and `write()` read out."""

    def __init__(self) -> None:
        self.job = -1
        self.spans: list[tuple] = []  # (id, parent id, job, name, start, end)
        self.stack: list[list] = []  # [id, name, child time]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.job_time = 0.0
        self.closure_dims = 0
        self.closure_brackets = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import blocklie.cli  # noqa: F401  (loads every module to be wrapped)

        modules = {name: sys.modules[f"blocklie.{name}"] for name in SPANS}
        modules["scalars"] = sys.modules["blocklie.scalars"]
        hooks = {
            "hweight.detect_linear_recurrence": self._recurrence,
            "hweight.singular_vector_solve": self._kernel,
            "engine.subalgebra_closure": self._closure,
            "engine.grid_identity_check": self._grid,
        }
        for module_name, names in SPANS.items():
            module = modules[module_name]
            for name in names:
                full = f"{module_name}.{name}"
                original = getattr(module, name)
                _rebind(original, self._span(full, original, hooks.get(full)))
        for full, (module_name, class_name, attr) in COUNTED.items():
            owner = modules[module_name]
            if class_name is None:
                original = getattr(owner, attr)
                _rebind(original, self._counted(full, original))
            else:
                cls = getattr(owner, class_name)
                original = cls.__dict__[attr]
                wrapper = self._counted(full, original)
                for key, value in list(vars(cls).items()):
                    if value is original:  # also __radd__ / __rmul__ aliases
                        setattr(cls, key, wrapper)

    def _span(self, name, fn, hook):
        spans, stack, self_s, calls = self.spans, self.stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    self.job_time += duration
                spans.append((span_id, parent, self.job, name, start, end))
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        if name == "engine.bracket_apply":
            stack, counters = self.stack, self.counters

            @functools.wraps(fn)
            def bracket_wrapper(rule, x, y):
                calls[name] += 1
                counters["engine.bracket_apply.term_pairs"] += len(x.terms) * len(y.terms)
                if stack and stack[-1][1] == "engine.subalgebra_closure":
                    self.closure_brackets += 1
                return fn(rule, x, y)

            return bracket_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- work counters computed from arguments and results ----------------------

    def _recurrence(self, certificate, series, max_degree=None):
        limit = series.horizon // 2
        if max_degree is not None:
            limit = min(limit, max_degree)
        tried = certificate.degree if certificate is not None else limit
        self.counters["hweight.recurrence_degrees_tried"] += tried

    def _kernel(self, candidates, weight, params, max_level, horizon):
        self.counters["hweight.kernel_cells"] += (horizon + 1) * (max_level + 1)

    def _closure(self, closure, rule, generators, window):
        self.closure_dims += closure.dimension()

    def _grid(self, verdict, rule, identity, grade_values, level_values):
        singles = [(g, l) for g in grade_values for l in level_values]
        arity = 2 if identity == "antisymmetry" else 3
        if verdict.holds:
            points = len(singles) ** arity
        else:  # the scan stopped at the witness, in itertools.product order
            position = {cell: k for k, cell in enumerate(singles)}
            points = 1
            for cell in verdict.witness:
                points += position[cell] * len(singles) ** (arity - 1)
                arity -= 1
        self.counters["engine.grid_points"] += points

    def note_report(self, document: bytes) -> None:
        self.counters["cli.report_bytes"] += len(document)
        bits = max((int(m).bit_length() for m in _INTEGER.findall(document)), default=0)
        self.counters["scalars.max_coeff_bits"] = max(self.counters["scalars.max_coeff_bits"], bits)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Totals over the traced batch, keyed by per-layer metric name."""
        out: dict = {}
        for module_name, names in SPANS.items():
            for name in names:
                full = f"{module_name}.{name}"
                out[f"{full}.self_s"] = self.self_s[full]
                out[f"{full}.calls"] = self.calls[full]
        for full in COUNTED:
            out[f"{full}.calls"] = self.calls[full]
        out.update(
            {
                key: self.counters[key]
                for key in (
                    "hweight.recurrence_degrees_tried",
                    "hweight.kernel_cells",
                    "engine.bracket_apply.term_pairs",
                    "engine.grid_points",
                    "scalars.max_coeff_bits",
                    "cli.report_bytes",
                )
            }
        )
        out["engine.closure_yield"] = (
            self.closure_dims / self.closure_brackets if self.closure_brackets else 0.0
        )
        out["trace.job_time_s"] = self.job_time
        for share, parts in SHARES.items():
            total = sum(self.self_s[p] for p in parts)
            out[share] = total / self.job_time if self.job_time else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, job, name, start, end in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "job": job, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
            handle.write(json.dumps({"counters": self.metrics()}) + "\n")
