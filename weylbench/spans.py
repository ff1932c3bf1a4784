"""Per-layer spans for the traced benchmark run.

The package is not edited: ``install`` rebinds public functions and methods
of the ``weylseed`` modules to wrappers that record one span per call.  A
module-level function is rebound in every module that holds it (``from .x
import y`` copies the binding), a method on its class.  Spans stay in memory
and are written once, when the run ends.

Only layer-boundary functions are wrapped.  Small accessors such as
``ReducedWord.letter`` or ``sym_form`` run millions of times inside the
layers; spans there would cost more than the work they measure, so their
time counts as self time of the enclosing span.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

HOOK = "trace.hook"


class Tracer:
    """Collects spans ``(doc, name, start_ns, end_ns, parent)`` and counts."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.doc = -1

    def wrap(self, name, fn, hook=None):
        """Wrap ``fn`` in a span.

        ``name`` is a string or a function of the call's arguments.  ``hook``
        updates counts after the call; its time is recorded as a child span
        so it is not charged to any layer.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name(args) if callable(name) else name
                spans[index] = (self.doc, label, start, end, parent)
            if hook is not None:
                hook(self.counts, args, result)
                spans.append((self.doc, HOOK, end, clock(), parent))
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, clock) -> dict[str, list[float]]:
        """``name -> [calls, self seconds]``, in ``clock``'s reference seconds.

        Self time excludes child spans.
        """
        length = [clock.reference(start / 1e9, end / 1e9) for _, _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, _, parent), seconds in zip(self.spans, length):
            if parent >= 0:
                child[parent] += seconds
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for index, (_, name, _, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += length[index] - child[index]
        return dict(out)

    def write(self, path: str) -> None:
        """Write spans as compact JSON rows: doc, name id, start, end (wall ns), parent."""
        names: dict[str, int] = {}
        rows = [
            [doc, names.setdefault(name, len(names)), start, end, parent]
            for doc, name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


def runs_decompose(word, pattern) -> bool:
    """Whether ``word`` is pattern[0]^a1 pattern[1]^a2 ... with a_q >= 0.

    Taking the longest run at each pattern letter is optimal: letters a later
    equal pattern letter would take can always be taken earlier instead.
    """
    pos, n = 0, len(word)
    for letter in pattern:
        while pos < n and word[pos] == letter:
            pos += 1
    return pos == n


def _mul_counts(counts, args, result):
    counts["laurent.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    counts["laurent.mul.terms_out"] += len(result.terms)


def _div_counts(counts, args, result):
    counts["laurent.exact_div.quotient_terms"] += len(result.terms)


def _div_name(args):
    kind = "monomial" if len(args[1].terms) == 1 else "general"
    return f"laurent.exact_div.{kind}"


def _rho_f_counts(counts, args, result):
    counts["words.rho_f.words_out"] += len(result.terms)


def _phi_counts(counts, args, result):
    g, pattern = args[0], args[1]
    counts["words.phi_eval.words_in"] += len(g.terms)
    counts["words.phi_eval.words_useful"] += sum(
        runs_decompose(u, pattern) for u in g.terms
    )


def _steps_counts(counts, args, result):
    counts["intervals.steps_checked"] += result.steps_checked


# (module, class or None, attribute, span name, count hook)
TARGETS = (
    ("cli", None, "main", "cli.main", None),
    ("cli", None, "build_parser", "cli.build_parser", None),
    ("cli", None, "_load_doc", "cli.load_doc", None),
    ("cli", None, "_dump", "cli.dump", None),
    ("cartan", "CartanMatrix", "from_edges", "cartan.CartanMatrix.from_edges", None),
    ("cartan", "ReducedWord", "__init__", "cartan.ReducedWord", None),
    ("quiver", None, "gamma_i", "quiver.gamma_i", None),
    ("quiver", None, "b_matrix", "quiver.b_matrix", None),
    ("quiver", "ExchangeMatrix", "__init__", "quiver.ExchangeMatrix.init", None),
    ("quiver", "ExchangeMatrix", "mutate", "quiver.ExchangeMatrix.mutate", None),
    ("quiver", "Seed", "mutate", "quiver.Seed.mutate", None),
    ("quiver", "Seed", "specialize_frozen", "quiver.Seed.specialize_frozen", None),
    ("quiver", "SeedRegistry", "insert_if_absent", "quiver.SeedRegistry.insert", None),
    ("quiver", None, "denominator_vector", "quiver.denominator_vector", None),
    ("quiver", None, "coefficient_free_matrix", "quiver.coefficient_free_matrix", None),
    ("quiver", None, "acyclic_double", "quiver.acyclic_double", None),
    ("quiver", None, "y_dagger", "quiver.y_dagger", None),
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul", _mul_counts),
    ("laurent", "LaurentPoly", "exact_div", _div_name, _div_counts),
    ("laurent", "LaurentPoly", "__pow__", "laurent.pow", None),
    ("laurent", "LaurentPoly", "substitute", "laurent.substitute", None),
    ("homdata", None, "hom_tables", "homdata.hom_tables", None),
    ("homdata", None, "initial_dimvec_labels", "homdata.initial_dimvec_labels", None),
    ("homdata", None, "initial_delta_labels", "homdata.initial_delta_labels", None),
    ("homdata", None, "mutate_dimvec", "homdata.mutate_dimvec", None),
    ("homdata", None, "mutate_delta_dimvec", "homdata.mutate_delta_dimvec", None),
    ("intervals", None, "mu_i_plan", "intervals.mu_i_plan", None),
    ("intervals", None, "run_mu_i", "intervals.run_mu_i", _steps_counts),
    ("intervals", None, "identity_step", "intervals.identity_step", None),
    ("intervals", None, "verify_identity", "intervals.verify_identity", None),
    ("intervals", "PBWExpander", "expand", "intervals.PBWExpander.expand", None),
    ("words", None, "g_V", "words.g_V", None),
    ("words", None, "lowering_monomial", "words.lowering_monomial", None),
    ("words", None, "rho_f", "words.rho_f", _rho_f_counts),
    ("words", None, "phi_eval", "words.phi_eval", _phi_counts),
    ("minors", None, "x_product", "minors.x_product", None),
    ("minors", None, "minor", "minors.minor", None),
    ("minors", None, "minor_spec_for_Vk", "minors.minor_spec_for_Vk", None),
    ("minors", None, "cross_validate", "minors.cross_validate", None),
)
COUNTS = (
    "laurent.mul.term_pairs", "laurent.mul.terms_out", "laurent.exact_div.quotient_terms",
    "words.rho_f.words_out", "words.phi_eval.words_in", "intervals.steps_checked",
    "cli.output_bytes",
)
LAYERS = ("cli", "cartan", "quiver", "laurent", "homdata", "intervals", "words", "minors")


def install(tracer: Tracer) -> None:
    """Rebind every target to a traced wrapper; the package must be imported."""
    modules = [m for n, m in sys.modules.items() if n == "weylseed" or n.startswith("weylseed.")]
    for module_name, class_name, attr, name, hook in TARGETS:
        module = sys.modules[f"weylseed.{module_name}"]
        if class_name is not None:
            cls = getattr(module, class_name)
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], hook))
            continue
        fn = getattr(module, attr)
        traced = tracer.wrap(name, fn, hook)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, traced)


def layer_metrics(agg: dict[str, list[float]], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics: ``<span>.calls``, ``<span>.s`` (self seconds), counts."""
    merged = dict(agg)
    mono = agg.get("laurent.exact_div.monomial", [0, 0])
    general = agg.get("laurent.exact_div.general", [0, 0])
    merged["laurent.exact_div"] = [mono[0] + general[0], mono[1] + general[1]]
    out: dict[str, float] = {}
    for name in [t[3] for t in TARGETS if isinstance(t[3], str)] + ["laurent.exact_div"]:
        calls, self_s = merged.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = self_s
    out["laurent.exact_div.monomial_calls"] = mono[0]
    out["laurent.exact_div.monomial_s"] = mono[1]
    out["intervals.run_mu_i.self_s"] = out["intervals.run_mu_i.s"]
    out["minors.cross_validate.self_s"] = out["minors.cross_validate.s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s for name, (_, s) in agg.items() if name.startswith(layer + ".")
        )
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    words_in = counts.get("words.phi_eval.words_in", 0)
    useful = counts.get("words.phi_eval.words_useful", 0)
    out["words.phi_eval.useful_ratio"] = useful / words_in if words_in else 0.0
    out["trace.spans"] = sum(calls for name, (calls, _) in agg.items() if name != HOOK)
    return out


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics two traced runs of the same code must reproduce exactly."""
    return {
        k: v for k, v in metrics.items()
        if k in COUNTS or k.endswith(("calls", ".spans"))
    }
