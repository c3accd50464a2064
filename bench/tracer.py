"""Span tracing from outside the program: wrap public functions of randlab's
layers, record one span per call, and derive per-layer self times and counts.

Nothing under src/ changes.  Functions are swapped in every randlab module
that bound them by name (cli imports check_fairness and friends directly),
and methods on every class that defines them, and put back by `remove`.
"""

import json
import sys
import time
from collections import defaultdict

# (module, function, span name).  "*.name" wraps the method on every class of
# the module that defines it; a span name of None only counts.  A span name
# maps to the metric "<span name>_s".  Lazy closures are charged to whoever
# forces them.
TARGETS = [
    ("cli", "main", "cli.self"),
    ("measure", "check_additivity", "measure.check_additivity"),
    ("martingale", "check_fairness", "martingale.check_fairness"),
    ("martingale", "ville_audit", "martingale.ville_audit"),
    ("martingale", "ville_monte_carlo", "martingale.ville_monte_carlo"),
    ("randtests", "martingale_to_integral", "randtests.martingale_to_integral"),
    ("randtests", "integral_to_bounded_ml", "randtests.integral_to_bounded_ml"),
    ("randtests", "vitali_to_integral", "randtests.vitali_to_integral"),
    ("randtests", "_verify_integral", "randtests.verify.integral"),
    ("randtests", "_verify_bounded", "randtests.verify.bounded_ml"),
    ("randtests", "_verify_vitali", "randtests.verify.vitali"),
    ("randtests", "verify_test_bounds", None),
    ("specfmt", "test_to_doc", "specfmt.test_to_doc"),
    ("specfmt", "test_from_doc", "specfmt.test_from_doc"),
    ("specfmt", "parse_measure", "specfmt.parse"),
    ("specfmt", "parse_martingale", "specfmt.parse"),
    ("specfmt", "parse_strategy", "specfmt.parse"),
    ("specfmt", "parse_source", "specfmt.parse"),
    ("specfmt", "parse_decomposition", "specfmt.parse"),
    ("specfmt", "load_machine_file", "specfmt.parse"),
    ("specfmt", "load_cylinder_file", "specfmt.parse"),
    ("betting", "play", "betting.play"),
    ("cells", "refine", "cells.refine"),
    ("cells", "transfer_measure", "cells.transfer_measure"),
    ("cells", "*.name_point", "cells.name_point"),
    ("machines", "deficiency_trace", "machines.deficiency_trace"),
    ("machines", "kc_build", "machines.kc_build"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS if name})


def _max_bits(values) -> int:
    return max(max(int(v.numerator).bit_length(), int(v.denominator).bit_length()) for v in values)


def _count(counts, attr, result):
    """Work counters read from the values a traced call returns."""
    if attr == "check_additivity":
        counts["measure.nodes"] += result.checked
    elif attr == "check_fairness":
        counts["martingale.nodes"] += result.checked
    elif attr == "verify_test_bounds":
        counts["randtests.checked"] += result.checked
    elif attr in ("martingale_to_integral", "vitali_to_integral"):
        counts["randtests.cells"] += len(result.values)
    elif attr == "integral_to_bounded_ml":
        counts["randtests.cells"] += sum(len(level.generators) for level in result.levels)
    elif attr == "play":
        counts["betting.steps"] += len(result.values) - 1
        counts["betting.max_bits"] = max(counts["betting.max_bits"], _max_bits(result.values))
    elif attr == "deficiency_trace":
        counts["machines.rows"] += len(result.rows)


COUNT_NAMES = [
    "measure.nodes", "martingale.nodes", "randtests.checked", "randtests.cells",
    "betting.steps", "betting.max_bits", "machines.rows",
]


class Tracer:
    """Spans (name, start, end, parent index, job id), kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, attr):
        tracer = self

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append(None)
                tracer._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[index] = (name, start, end, parent, tracer.job)
            _count(tracer.counts, attr, result)
            return result

        return traced

    def install(self, randlab) -> None:
        modules = [mod for key, mod in sys.modules.items() if key.startswith("randlab.")]
        for module_name, attr, name in TARGETS:
            module = getattr(randlab, module_name)
            if attr.startswith("*."):
                method = attr[2:]
                for cls in vars(module).values():
                    if isinstance(cls, type) and method in vars(cls):
                        original = vars(cls)[method]
                        setattr(cls, method, self._wrap(original, name, method))
                        self._undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, attr)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> dict:
        """Per span name: (self seconds, calls).  Self time is the span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")
