"""Per-layer tracing of sigbasis from outside the package.

``Tracer.install`` wraps public functions and methods of each ``sigbasis``
module for one pass and ``uninstall`` puts the originals back.  A function is
re-bound in every module that imported it (``find_regular_reducer`` is bound
in both ``sigbasis.sigcore`` and ``sigbasis.engine``), and methods are patched
on their classes.

Hot leaf functions (``divide``, ``Monomial.mul``, the order ``key`` methods,
field arithmetic) are only counted.  Coarser boundaries are timed as spans:
each open span sits on a stack, so its parent is the span below it, and a
span's self time is its duration minus the durations of its child spans.
Spans are folded into per-name totals as they close.
"""

from __future__ import annotations

import json
from collections import defaultdict

# (module, attribute, span name).  One name may cover several functions.
SPANS = (
    ("monomials", "minimal_common_multiples", "monomials.mcm"),
    ("algebra", "Element.sub_scaled", "algebra.sub_scaled"),
    ("algebra", "Element.mul_monomial", "algebra.mul_monomial"),
    ("algebra", "normal_form_with_steps", "algebra.normal_form"),
    ("algebra", "SpanEchelon.__init__", "algebra.echelon"),
    ("algebra", "SpanEchelon.residue_vector", "algebra.echelon"),
    ("sigcore", "find_regular_reducer", "sigcore.lookup"),
    ("critical", "critical_pair_signatures", "critical.pair"),
    ("critical", "queue_update", "critical.queue_update"),
    ("critical", "CriticalQueue.prune", "critical.prune"),
    ("critical", "critical_set", "critical.critical_set"),
    ("engine", "run", "engine.run"),
    ("engine", "select_reductant_f5", "engine.select"),
    ("engine", "select_reductant_sigtree", "engine.select"),
    ("engine", "_select_min_lm", "engine.select"),
    ("engine", "faugere_certificate", "engine.certificate"),
    ("engine", "validate_sigtree", "verify.tree"),
    ("engine", "tree_signature_consistent", "verify.tree"),
    ("engine", "export_dot", "cli.export"),
    ("verify", "buchberger", "verify.oracle"),
    ("verify", "bounded_signature_basis_check", "verify.deep"),
    ("verify", "bounded_syzygy_check", "verify.deep"),
    ("verify", "lm_ideal_equal", "verify.lm_compare"),
    ("cli", "parse_problem", "cli.parse"),
    ("cli", "ProblemSpec.build_generators", "cli.parse"),
    ("cli", "_result_json", "cli.export"),
)
# The certificate that `sigbasis run --verify` recomputes belongs to verify.
SPAN_BY_BINDING = {("cli", "faugere_certificate"): "verify.certificate"}

# (module, attribute, counter name): counted, never timed.
COUNTS = (
    ("monomials", "divide", "monomials.divide"),
    ("monomials", "Monomial.mul", "monomials.mul"),
    ("monomials", "ScalarOrder.key", "monomials.key"),
    ("monomials", "ModuleOrder.key", "monomials.key"),
    ("monomials", "MonoidSpec.member", "monomials.member"),
    *(("algebra", f"{cls}.{op}", "algebra.field_ops")
      for cls in ("RationalField", "PrimeField")
      for op in ("add", "sub", "mul", "div", "neg")),
    ("critical", "CriticalQueue.add", "critical.queue_adds"),
    ("critical", "CriticalQueue.pop_min", "critical.pops"),
    ("critical", "CriticalQueue.pop_at", "critical.pops"),
    ("engine", "rewrite_basis_at", "engine.rewrite_checks"),
    *(("textio", f, "textio.render") for f in ("render_monomial", "render_element", "render_sigpair")),
)

# Printed metrics: name -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "monomials.divide.calls": "count",
    "monomials.divide.hit_ratio": "ratio",
    "monomials.mul.calls": "count",
    "monomials.key.calls": "count",
    "monomials.mcm.calls": "count",
    "monomials.mcm.pairs_per_call": "ratio",
    "monomials.mcm_s": "s",
    "monomials.member.calls": "count",
    "algebra.sub_scaled.calls": "count",
    "algebra.sub_scaled_s": "s",
    "algebra.terms_merged": "count",
    "algebra.field_ops": "count",
    "algebra.coeff_bits_max": "bits",
    "algebra.mul_monomial.calls": "count",
    "algebra.mul_monomial_s": "s",
    "algebra.normal_form_s": "s",
    "algebra.echelon_s": "s",
    "sigcore.lookups": "count",
    "sigcore.lookup_s": "s",
    "sigcore.lookup_hit_ratio": "ratio",
    "sigcore.candidates_per_lookup": "ratio",
    "sigcore.reduction_steps": "count",
    "critical.pair_calls": "count",
    "critical.pair_s": "s",
    "critical.queue_update_s": "s",
    "critical.prune_s": "s",
    "critical.queue_adds": "count",
    "critical.peak_queue": "count",
    "critical.critical_set_s": "s",
    "engine.iterations": "count",
    "engine.insertions": "count",
    "engine.zero_reductions": "count",
    "engine.zero_ratio": "ratio",
    "engine.skip_ratio": "ratio",
    "engine.select_s": "s",
    "engine.certificate_s": "s",
    "engine.rewrite_checks": "count",
    "engine.loop_s": "s",
    "verify.oracle_s": "s",
    "verify.oracle_basis_size": "count",
    "verify.tree_s": "s",
    "verify.certificate_s": "s",
    "verify.deep_s": "s",
    "verify.lm_compare_s": "s",
    "cli.parse_s": "s",
    "cli.export_s": "s",
    "cli.trace_rows": "count",
    "textio.render_calls": "count",
}


def _resolve(module, path):
    owner = module
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


def _coeff_bits(c) -> int:
    return abs(int(c.numerator)).bit_length() + int(c.denominator).bit_length()


class Tracer:
    """Counts and span self times for one pass over a workload."""

    def __init__(self, clock):
        self.clock = clock
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stack = []
        self._undo = []

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _rebind(self, sb, module, path, make):
        """Wrap ``module.path``: on its class for a method, else in every
        sigbasis module that holds the same function object."""
        owner, attr = _resolve(getattr(sb, module), path)
        original = owner.__dict__[attr]
        if "." in path:
            self._patch(owner, attr, make(original, None))
            return
        for name, mod in vars(sb).items():
            if mod.__dict__.get(attr) is original:
                self._patch(mod, attr, make(original, "sigbasis" if name == "package" else name))

    def count(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def span(self, name, fn, after=None):
        counts, self_s, stack, clock = self.counts, self.self_s, self.stack, self.clock

        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            counts[name] += 1
            if after is not None:
                after(args, result)
            return result

        return spanned

    def install(self, sb):
        hooks = {
            "monomials.mcm": self._after_mcm,
            "algebra.sub_scaled": self._after_sub_scaled,
            "algebra.normal_form": self._after_normal_form,
            "engine.run": self._after_run,
            "verify.oracle": self._after_oracle,
        }
        special = {"divide": self._divide, "CriticalQueue.add": self._queue_add}
        for module, path, name in SPANS:
            def make(fn, binding, path=path, name=name):
                name = SPAN_BY_BINDING.get((binding, path), name)
                if name == "sigcore.lookup":
                    return self._lookup(self.span(name, fn))
                return self.span(name, fn, hooks.get(name))
            self._rebind(sb, module, path, make)
        for module, path, name in COUNTS:
            if path in special:
                make = lambda fn, binding, wrap=special[path]: wrap(fn)  # noqa: E731
            else:
                make = lambda fn, binding, name=name: self.count(name, fn)  # noqa: E731
            self._rebind(sb, module, path, make)
        self._patch(sb.cli, "json", _CountingJson(self))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers that record more than a call count --------------------

    def _divide(self, fn):
        counts = self.counts

        def divide(m, n, spec):
            counts["monomials.divide"] += 1
            q = fn(m, n, spec)
            if q is not None:
                counts["divide.hits"] += 1
            return q

        return divide

    def _lookup(self, fn):
        counts = self.counts

        def find_regular_reducer(*args, **kwargs):
            before = counts["monomials.divide"]
            found = fn(*args, **kwargs)
            counts["lookup.divides"] += counts["monomials.divide"] - before
            if found is not None:
                counts["lookup.hits"] += 1
            return found

        return find_regular_reducer

    def _queue_add(self, fn):
        counts = self.counts

        def add(queue, sigma, source=()):
            added = fn(queue, sigma, source)
            if added:
                counts["critical.queue_adds"] += 1
                counts["queue.peak"] = max(counts["queue.peak"], len(queue))
            return added

        return add

    def _after_mcm(self, args, result):
        self.counts["mcm.pairs"] += len(result)

    def _after_oracle(self, args, result):
        self.counts["oracle.size"] += len(result)

    def _after_sub_scaled(self, args, result):
        self.counts["terms_merged"] += len(args[0].terms) + len(args[1].terms)

    def _after_normal_form(self, args, result):
        part, steps = result
        self.counts["steps"] += steps
        if part.terms:
            bits = max(_coeff_bits(c) for _, _, c in part.terms)
            self.counts["coeff_bits_max"] = max(self.counts["coeff_bits_max"], bits)

    def _after_run(self, args, result):
        for k in ("iterations", "insertions", "zero_reductions"):
            self.counts[f"run.{k}"] += getattr(result.stats, k)

    # -- the pass's metrics ---------------------------------------------

    def metrics(self, scale: float) -> dict:
        """This pass's values; span times are multiplied by ``scale``."""
        c = self.counts
        s = defaultdict(float, {name: t * scale for name, t in self.self_s.items()})

        def ratio(a, b):
            return a / b if b else 0.0

        pops = c["critical.pops"]
        values = {
            "monomials.divide.calls": c["monomials.divide"],
            "monomials.divide.hit_ratio": ratio(c["divide.hits"], c["monomials.divide"]),
            "monomials.mul.calls": c["monomials.mul"],
            "monomials.key.calls": c["monomials.key"],
            "monomials.mcm.calls": c["monomials.mcm"],
            "monomials.mcm.pairs_per_call": ratio(c["mcm.pairs"], c["monomials.mcm"]),
            "monomials.mcm_s": s["monomials.mcm"],
            "monomials.member.calls": c["monomials.member"],
            "algebra.sub_scaled.calls": c["algebra.sub_scaled"],
            "algebra.sub_scaled_s": s["algebra.sub_scaled"],
            "algebra.terms_merged": c["terms_merged"],
            "algebra.field_ops": c["algebra.field_ops"],
            "algebra.coeff_bits_max": c["coeff_bits_max"],
            "algebra.mul_monomial.calls": c["algebra.mul_monomial"],
            "algebra.mul_monomial_s": s["algebra.mul_monomial"],
            "algebra.normal_form_s": s["algebra.normal_form"],
            "algebra.echelon_s": s["algebra.echelon"],
            "sigcore.lookups": c["sigcore.lookup"],
            "sigcore.lookup_s": s["sigcore.lookup"],
            "sigcore.lookup_hit_ratio": ratio(c["lookup.hits"], c["sigcore.lookup"]),
            "sigcore.candidates_per_lookup": ratio(c["lookup.divides"], c["sigcore.lookup"]),
            "sigcore.reduction_steps": c["steps"],
            "critical.pair_calls": c["critical.pair"],
            "critical.pair_s": s["critical.pair"],
            "critical.queue_update_s": s["critical.queue_update"],
            "critical.prune_s": s["critical.prune"],
            "critical.queue_adds": c["critical.queue_adds"],
            "critical.peak_queue": c["queue.peak"],
            "critical.critical_set_s": s["critical.critical_set"],
            "engine.iterations": c["run.iterations"],
            "engine.insertions": c["run.insertions"],
            "engine.zero_reductions": c["run.zero_reductions"],
            "engine.zero_ratio": ratio(c["run.zero_reductions"], c["run.insertions"]),
            "engine.skip_ratio": ratio(pops - c["run.insertions"], pops),
            "engine.select_s": s["engine.select"],
            "engine.certificate_s": s["engine.certificate"],
            "engine.rewrite_checks": c["engine.rewrite_checks"],
            "engine.loop_s": s["engine.run"],
            "verify.oracle_s": s["verify.oracle"],
            "verify.oracle_basis_size": c["oracle.size"],
            "verify.tree_s": s["verify.tree"],
            "verify.certificate_s": s["verify.certificate"],
            "verify.deep_s": s["verify.deep"],
            "verify.lm_compare_s": s["verify.lm_compare"],
            "cli.parse_s": s["cli.parse"],
            "cli.export_s": s["cli.export"],
            "cli.trace_rows": c["cli.trace_rows"],
            "textio.render_calls": c["textio.render"],
        }
        return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


class _CountingJson:
    """Stands in for ``json`` inside ``sigbasis.cli``: its dumps/dump calls
    are the trace-row and JSON exports."""

    def __init__(self, tracer):
        self.loads, self.load = json.loads, json.load
        dumps = tracer.span("cli.export", json.dumps)

        def counted_dumps(*args, **kwargs):
            tracer.counts["cli.trace_rows"] += 1
            return dumps(*args, **kwargs)

        self.dumps = counted_dumps
        self.dump = tracer.span("cli.export", json.dump)
