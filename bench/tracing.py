"""Timed access to craig's public functions.

The workloads call craig only through an `Api`.  Untraced, its attributes
are craig's own functions, so timing adds nothing to a call.  Traced, each
call records a span (name, start, end, parent) in memory; the spans of one
instance hang below that instance's span.
"""

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# The public functions of craig that the benchmark calls, by module.
LAYERS = {
    "formulas": (
        "enumerate_interpolants", "equiv", "eval_formula", "formula_cnf",
        "formula_length", "make_model", "prune", "subsumes", "vars_of",
    ),
    "resolution": (
        "check_refutation", "format_refutation", "interpolant_from_refutation",
        "parse_refutation", "refute", "refute_partitioned",
    ),
    "sequent": (
        "check_proof", "classify_cut", "format_proof", "is_tame", "parse_proof",
        "sequent",
    ),
    "maehara": ("maehara",),
    "transform": ("eliminate_cuts",),
    "construct": ("prove_cutfree", "realize_interpolant", "realize_pruned"),
}

# Calls whose time is also split by an argument: the proof system.
TAGS = {"construct.prove_cutfree": lambda args: args[1].name}


class Tracer:
    """Spans kept in memory as dicts, in the order they were opened."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.instance = None

    @contextmanager
    def span(self, name, tag=None):
        record = {
            "name": name,
            "tag": tag,
            "instance": self.instance,
            "parent": self._open[-1] if self._open else None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def instance_span(self, ident):
        self.instance = ident
        try:
            with self.span("instance"):
                yield
        finally:
            self.instance = None

    def wrap(self, name, fn):
        tag_of = TAGS.get(name)

        def call(*args, **kwargs):
            with self.span(name, tag_of(args) if tag_of else None):
                return fn(*args, **kwargs)

        return call


class Api:
    """craig's functions by bare name, wrapped in spans when traced."""

    def __init__(self, tracer=None):
        for module, names in LAYERS.items():
            mod = importlib.import_module("craig." + module)
            for name in names:
                fn = getattr(mod, name)
                setattr(self, name, tracer.wrap(f"{module}.{name}", fn) if tracer else fn)


def summarize(spans):
    """Per-pass totals from one traced pass: seconds, calls and self time per
    function (and per tag), self time per module, and instance glue time."""
    out = defaultdict(float)
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        took = s["end"] - s["start"]
        own = took - child_time[i]
        if s["name"] == "instance":
            out["instance.glue_s"] += own
            continue
        for key in [s["name"]] + ([f"{s['name']}.{s['tag']}"] if s["tag"] else []):
            out[key + ".s"] += took
            out[key + ".calls"] += 1
        out["layer." + s["name"].split(".")[0] + ".self_s"] += own
    return out
