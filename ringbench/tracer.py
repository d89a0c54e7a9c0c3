"""Call tracer for the ringinv layers, installed from outside the program.

Each traced function is replaced by a timing wrapper in every ``ringinv.*``
module namespace that binds it (``from .lattices import hermite_form`` copies
the binding into ``ring_core`` and others, so patching ``lattices`` alone
would undercount) and, for methods, on the class that defines it.

Every call is counted and its self time (duration minus the time covered by
traced calls made inside it) is accumulated per function.  Calls into the
upper layers are also kept as spans (name, start, end, parent span, request);
the hot primitives of ``ring_core`` and ``lattices`` are only aggregated, so
memory stays bounded on workloads that make millions of such calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, qualified name) of every traced callable, by layer
TARGETS: tuple[tuple[str, str], ...] = (
    ("lattices", "hermite_form"),
    ("lattices", "in_hermite_span"),
    ("lattices", "smith_form"),
    ("lattices", "solve_mod_p"),
    ("ring_core", "FiniteRing.mul"),
    ("ring_core", "validate_ring"),
    ("ring_core", "generated_ideal"),
    ("ring_core", "quotient_by_ideal"),
    ("ring_core", "Subgroup.from_generators"),
    ("ring_core", "Subgroup.intersect"),
    ("ring_core", "Subgroup.elements"),
    ("ring_core", "SubringView.image"),
    ("groups", "close_group"),
    ("groups", "fixed_subgroup"),
    ("groups", "p_normal_complement"),
    ("groups", "quotient_action"),
    ("invariants", "GActionContext.invariant_ideals"),
    ("invariants", "GActionContext.bad_primes"),
    ("invariants", "enumerate_splittings"),
    ("invariants", "averaging_idempotent"),
    ("invariants", "is_proper_splitting"),
    ("invariants", "centralizer_normalizer"),
    ("invariants", "unit_group"),
    ("invariants", "torsion_ideal"),
    ("invariants", "subgroup_power_nilpotency"),
    ("radicals", "radical_profile"),
    ("radicals", "prime_radical"),
    ("radicals", "jacobson_radical"),
    ("radicals", "enumerate_ideals"),
    ("radicals", "minimal_ideals"),
    ("radicals", "uniform_dimension"),
    ("radicals", "module_length"),
    ("radicals", "FiniteModule.minimal_submodules"),
    ("radicals", "regular_elements_quotient"),
    ("radicals", "nilpotency_index"),
    ("theorems", "check"),
    ("theorems", "rebuild_context"),
    ("theorems", "counterexample_search"),
    ("catalog", "random_instances"),
    ("catalog", "named_instances"),
)

# layers whose calls are aggregated only, never kept as spans
AGGREGATED = frozenset({"ring_core", "lattices"})

# functions whose result counts useful outcomes of the attempt
OUTCOMES = {
    "invariants.is_proper_splitting": lambda report: report.status == "yes",
    "theorems.counterexample_search": len,
}


class Tracer:
    """Counts, self times and spans of the traced calls in this process.

    Use as a context manager: the wrappers are installed on entry and the
    original bindings restored on exit.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.useful: dict[str, int] = {}
        self.spans: list = []
        self.request = None
        self._stack: list = []      # open frames: [start, child time, span id]
        self._restore: list = []

    # -- installation --------------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ringinv" or name.startswith("ringinv.")]
        for module_name, qualname in TARGETS:
            module = importlib.import_module("ringinv." + module_name)
            name = f"{module_name}.{qualname}"
            keep = module_name not in AGGREGATED
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, keep))
                else:
                    wrapped = self._wrap(name, raw, keep)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(name, original, keep)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn, keep: bool):
        is_check = name == "theorems.check"
        outcome = OUTCOMES.get(name)
        stack = self._stack
        spans = self.spans
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter
        for table in (calls, self_s, total_s):
            table.setdefault(name, 0)
        if outcome is not None:
            self.useful[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{name}.{args[0]}" if is_check else name
            span_id = None
            if keep:
                span_id = len(spans)
                spans.append(None)
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + duration - frame[1]
                total_s[key] = total_s.get(key, 0.0) + duration
                if stack:
                    stack[-1][1] += duration
                if keep:
                    parent = next((f[2] for f in reversed(stack)
                                   if f[2] is not None), None)
                    spans[span_id] = (key, frame[0], end, parent, self.request)
            if outcome is not None:
                self.useful[name] += outcome(result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------
    def write_spans(self, path) -> None:
        """Write the kept spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
