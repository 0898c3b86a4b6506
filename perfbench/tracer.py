"""Per-layer spans and counters around heytop's public functions, installed from outside.

Each layer metric names the functions whose calls it covers.  `install`
replaces every binding of those functions in every loaded heytop module,
including copies imported by name (galois.py's `from .optable import
classify`, for instance), so no call escapes its span.  A span's self time
is its duration minus the time of the spans nested inside it; counted-only
functions open no span, so their time stays in the caller's self time.
Spans are aggregated in memory per layer metric; the trace is printed when
the traced loop ends.
"""

import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) of every function it covers
SPANS = {
    "heyting.build": [("heyting", "build_from_order")],
    "hset.enumerate": [("hset", "enumerate_all")],
    "optable.tabulate": [("optable", "Operator.__init__")],
    "optable.classify": [("optable", "classify")],
    "optable.compat": [("optable", f) for f in ("compat_degree", "compat_witness", "weak_compat_degree")],
    "optable.LL": [("optable", "LL")],
    "optable.RR": [("optable", "RR")],
    "optable.splits": [("optable", "splits_degree")],
    "optable.op_order": [("optable", f) for f in ("op_incl_degree", "op_eq_degree", "op_leq", "op_eq", "op_eq_witness")],
    "galois.certify": [("galois", "_Certified.__init__")],
    "galois.AA": [("galois", "AA")],
    "galois.JJ": [("galois", "JJ")],
    "galois.galois_check": [("galois", "galois_check")],
    "galois.family": [("galois", "from_family_sat"), ("galois", "from_family_red")],
    "galois.lattice": [("galois", f) for f in ("meet_saturations", "join_reductions", "join_saturations", "meet_reductions")],
    "galois.positivity": [("galois", "positivity_law")],
    "btop.make": [("btop", "make")],
    "btop.diagram": [("btop", "five_node_diagram")],
    "gen.generate": [("gen", "generate_sat"), ("gen", "generate_red")],
    "rep.symmetry": [("rep", "symmetry_check")],
    "rep.representable": [("rep", "representable")],
    "laws.suite": [("laws", "run_suite")],
    "cli.parse": [("cli", "parse_document")],
    "cli.run": [("cli", "run")],
    "catalog.replay": [("catalog", "CatalogEntry.replay")],
}

# counter name -> functions whose calls are counted without a span
COUNTS = {
    "hset.overlap": [("hset", "overlap")],
    "hset.incl": [("hset", "incl")],
    "hset.leq": [("hset", "HSubset.leq")],
    "optable.apply": [("optable", "Operator.apply")],
    "gen.axiom_degree": [("gen", "fulfills_degree"), ("gen", "splits_axioms_degree")],
}


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self.certify_failed = 0
        self.classify_repeats = 0
        self.law_instances = 0
        self._children = [0.0]  # time of finished child spans, one slot per open span
        self._classified = set()  # rank tables classified in the current job

    def new_job(self):
        self._classified.clear()

    def _span(self, name, fn):
        stats = self.spans[name]
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = children.pop()
                stats[0] += 1
                stats[1] += took
                stats[2] += took - inner
                children[-1] += took

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _classify(self, fn):
        def wrapper(op, *args, **kwargs):
            key = op.rank_table(*args[:1])
            if key in self._classified:
                self.classify_repeats += 1
            self._classified.add(key)
            return fn(op, *args, **kwargs)

        return wrapper

    def _certify(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except self._certificate_failure:
                self.certify_failed += 1
                raise

        return wrapper

    def _run_suite(self, fn):
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.law_instances += int(report.details.get("instances", 0))
            return report

        return wrapper

    def install(self):
        """Wrap every listed function in every loaded heytop module."""
        self._certificate_failure = sys.modules["heytop.errors"].CertificateFailure
        extra = {
            "optable.classify": self._classify,
            "galois.certify": self._certify,
            "laws.suite": self._run_suite,
        }
        originals = []
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, targets in table.items():
                for module, path in targets:
                    owner = sys.modules[f"heytop.{module}"]
                    *cls, attr = path.split(".")
                    if cls:
                        owner = getattr(owner, cls[0])
                    original = getattr(owner, attr)
                    originals.append(original)
                    wrapped = make(name, original)
                    if name in extra:
                        wrapped = extra[name](wrapped)
                    if cls:
                        setattr(owner, attr, wrapped)
                    else:
                        _rebind(original, wrapped)
        escaped = [f"{m}.{k}" for m, k, v in _bindings() if any(v is o for o in originals)]
        if escaped:
            raise RuntimeError(f"untraced bindings remain: {', '.join(escaped)}")

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name in SPANS:
            calls, total, self_s = self.spans[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        out["cli.parse.total_s"] = (self.spans["cli.parse"][1], "s")
        for name in COUNTS:
            out[f"{name}.calls"] = (self.counts[name], "count")
        classify_calls = self.spans["optable.classify"][0]
        out["optable.classify.repeat_frac"] = (self.classify_repeats / classify_calls if classify_calls else 0.0, "ratio")
        out["galois.certify.failed"] = (self.certify_failed, "count")
        out["laws.instances"] = (self.law_instances, "count")
        return out


def _bindings():
    """(module name, attribute, value) of every heytop module-level binding."""
    for modname, mod in list(sys.modules.items()):
        if modname == "heytop" or modname.startswith("heytop."):
            for key, value in list(vars(mod).items()):
                yield modname, key, value


def _rebind(original, wrapped):
    """Point every heytop module-level binding of `original` at `wrapped`."""
    for modname, key, value in _bindings():
        if value is original:
            setattr(sys.modules[modname], key, wrapped)
