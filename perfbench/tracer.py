"""Per-layer tracing from outside the library.

``Tracer.install`` wraps public functions of each galdescent module, replacing
every binding of the same object (``cli`` imports ``descend_algebra``
directly, ``HANDLERS`` holds the command handlers), so no call path escapes.
Layer boundaries record spans (name, start, end, parent) in memory; hot
operations only bump counters.  A layer's self time is its spans' duration
minus the duration of their direct child spans.
"""

import json
import sys
from collections import Counter
from time import perf_counter


def _enumeration_work(counts, args, result):
    field, nvars = args[1], args[2]
    counts["enumeration.candidates"] += field.order ** nvars if nvars else 1
    counts["enumeration.points"] += result if isinstance(result, int) else len(result)


def _tables_entries(counts, args, result):
    counts["enumeration.tables.entries"] += 2 * args[0].q ** 2


def _verify_triples(counts, args, result):
    counts["flat.verify.triples"] += args[0].dim ** 3


def _rref_entries(counts, args, result):
    counts["linalg.rref.entries"] += args[0].nrows * args[0].ncols


def _mul_mac(counts, args, result):
    left, right = args
    if hasattr(right, "ncols"):
        counts["linalg.mul.mac"] += left.nrows * left.ncols * right.ncols


# layer -> (targets as "module:qualified name", work measure or None)
SPANS = {
    "parser.parse": (["parser:parse"], None),
    "cli.build": (["cli:Workspace.build"], None),
    "cli.command": (["cli:run_descend", "cli:run_restrict", "cli:run_fixed",
                     "cli:run_amitsur", "cli:run_validate"], None),
    "galois.group": (["galois:frobenius_group", "galois:cyclotomic_group",
                      "galois:GaloisGroup.close_and_verify"], None),
    "extension.construct": (["extension:make_extension", "extension:finite_field"], None),
    "fields.inverse": (["fields:FieldElement.inverse"], None),
    "groebner.buchberger": (["groebner:buchberger"], None),
    "groebner.normal_form": (["groebner:normal_form"], None),
    "groebner.eliminate": (["groebner:eliminate"], None),
    "groebner.ideal_equal": (["groebner:ideal_equal"], None),
    "enumeration.tables": (["enumeration:SmallFieldTables.__init__"], _tables_entries),
    "enumeration.scan": (["enumeration:affine_points", "enumeration:count_affine_points"],
                         _enumeration_work),
    "semilinear": (["semilinear:validate_action", "semilinear:fixed_subspace",
                    "semilinear:counit_check", "semilinear:extend_scalars",
                    "semilinear:descend_subspace"], None),
    "affine.validate_datum": (["affine:validate_datum"], None),
    "affine.descend_algebra": (["affine:descend_algebra"], None),
    "affine.splits": (["affine:splits"], None),
    "affine.point_action": (["affine:derive_point_action"], None),
    "weil.restrict": (["weil:weil_restrict"], None),
    "weil.etale_splitting": (["weil:etale_splitting"], None),
    "weil.conjugate_product": (["weil:conjugate_product_check"], None),
    "flat.verify": (["flat:FiniteAlgebra.verify"], _verify_triples),
    "flat.amitsur": (["flat:amitsur_complex"], None),
    "flat.exactness": (["flat:check_exactness"], None),
    "linalg.rref": (["linalg:Matrix.rref"], _rref_entries),
    "linalg.mul": (["linalg:Matrix.__mul__"], _mul_mac),
}

# hot operations: counted, no span
COUNTERS = {
    "fields.mul": "fields:FieldElement.__mul__",
    "fields.add": "fields:FieldElement.__add__",
    "multipoly.order_key": "multipoly:MonomialOrder.key",
    "multipoly.mul": "multipoly:MultiPolynomial.__mul__",
    "groebner.ideal_groebner": "groebner:Ideal.groebner",
    "flat.algebra_mul": "flat:FiniteAlgebra.mul",
    "semilinear.act": "semilinear:SemilinearModule.act",
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("parser.parse.self_s", "s"),
    ("cli.build.self_s", "s"),
    ("cli.command.self_s", "s"),
    ("galois.group.self_s", "s"),
    ("extension.construct.self_s", "s"),
    ("fields.mul.calls", "count"),
    ("fields.add.calls", "count"),
    ("fields.inverse.calls", "count"),
    ("fields.inverse.self_s", "s"),
    ("multipoly.order_key.calls", "count"),
    ("multipoly.mul.calls", "count"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.eliminate.calls", "count"),
    ("groebner.ideal_equal.calls", "count"),
    ("groebner.basis_cache_hit_ratio", "ratio"),
    ("enumeration.tables.self_s", "s"),
    ("enumeration.tables.entries", "count"),
    ("enumeration.scan.self_s", "s"),
    ("enumeration.candidates", "count"),
    ("enumeration.hit_ratio", "ratio"),
    ("semilinear.self_s", "s"),
    ("semilinear.act.calls", "count"),
    ("affine.validate_datum.self_s", "s"),
    ("affine.descend_algebra.self_s", "s"),
    ("affine.splits.calls", "count"),
    ("affine.splits.self_s", "s"),
    ("affine.point_action.self_s", "s"),
    ("weil.restrict.self_s", "s"),
    ("weil.etale_splitting.self_s", "s"),
    ("weil.conjugate_product.self_s", "s"),
    ("flat.verify.calls", "count"),
    ("flat.verify.self_s", "s"),
    ("flat.verify.triples", "count"),
    ("flat.algebra_mul.calls", "count"),
    ("flat.amitsur.self_s", "s"),
    ("flat.exactness.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.entries", "count"),
    ("linalg.mul.calls", "count"),
    ("linalg.mul.self_s", "s"),
    ("linalg.mul.mac", "count"),
    ("trace.overhead_ratio", "ratio"),
]

DOCUMENT = "bench.document"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.roots = []        # index of each invocation's root span, in order
        self.counts = Counter()
        self._stack = []
        self._restore = []     # (owner, attribute, original value)

    # -- instrumentation -------------------------------------------------

    def install(self):
        for layer, (targets, measure) in SPANS.items():
            for target in targets:
                self._patch(target, lambda fn, layer=layer, measure=measure:
                            self._span(layer, fn, measure))
        for name, target in COUNTERS.items():
            self._patch(target, lambda fn, name=name: self._counter(name, fn))

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, target, make_wrapper):
        module_name, qualname = target.split(":")
        module = sys.modules[f"galdescent.{module_name}"]
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(make_wrapper(raw.__func__))
            else:
                wrapper = make_wrapper(raw)
            # aliases such as __radd__ = __add__ are the same object
            for name, value in list(owner.__dict__.items()):
                if value is raw:
                    self._restore.append((owner, name, value))
                    setattr(owner, name, wrapper)
            return
        original = getattr(module, qualname)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name != "galdescent" and not name.startswith("galdescent."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._restore.append((value, key, item))
                            value[key] = wrapper

    def _span(self, name, fn, measure):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            counts[calls] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if measure is not None:
                measure(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def timer(self, call):
        """Run one CLI invocation as a root span; returns (result, seconds)."""
        record = [DOCUMENT, 0.0, 0.0, -1]
        self.roots.append(len(self.spans))
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            result = call()
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        return result, record[2] - record[1]

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """(layer -> total self time, [layer -> self time] per invocation)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        root = [0] * len(self.spans)
        per_root = {}
        totals = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            own = end - start - child[i]
            totals[name] += own
            per_root.setdefault(root[i], Counter())[name] += own
        return totals, [per_root[index] for index in self.roots]

    def metrics(self, untraced_s, traced_s):
        """name -> value for every metric in PER_LAYER."""
        totals, _ = self.self_times()
        values = dict(self.counts)
        for layer in SPANS:
            values[f"{layer}.self_s"] = totals.get(layer, 0.0)
        builds = values.get("groebner.ideal_groebner.calls", 0)
        values["groebner.basis_cache_hit_ratio"] = (
            1 - values.get("groebner.buchberger.calls", 0) / builds if builds else 0.0)
        candidates = values.get("enumeration.candidates", 0)
        values["enumeration.hit_ratio"] = (
            values.get("enumeration.points", 0) / candidates if candidates else 0.0)
        values["trace.overhead_ratio"] = traced_s / untraced_s - 1
        return {name: values.get(name, 0) for name, _ in PER_LAYER}

    def dump(self, path, keys):
        """Write spans, counters and the self times of each invocation, named
        by ``keys`` in call order, as JSON."""
        _, per_invocation = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "counts": dict(self.counts),
                       "self_s_by_document": dict(zip(keys, per_invocation))}, handle)
