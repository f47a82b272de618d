"""Span tracing of the library's public functions, from outside the library.

`Tracer.install()` replaces public functions and methods of each cuspgerms
module with timing wrappers, at class or module level (and in every package
module that imported the same function by name); `uninstall()` puts the
originals back.  Each call records a span (name, start, end, parent span,
operation id) in typed arrays, so memory stays small.

NumericalSemigroup.contains runs once per exponent test, far more often than
anything else; its calls are folded into their parent span as a count and a
time instead of a span each, which keeps span files to a manageable size.

A layer's self time is the time inside its spans not covered by a child span
of any layer.  Wrapper bookkeeping of a child is charged to the child, not
to the parent, so self times approximate the untraced run.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

LAYERS = ("semigroup", "germ", "curve", "surgery", "nagata", "cli")

# (layer, module, owner attribute or None for a module function, function names)
TARGETS = [
    ("semigroup", "semigroup", "NumericalSemigroup",
     ["__init__", "contains", "conductor", "frobenius", "representation"]),
    ("germ", "germ", None, ["parse_germ", "aggregate_decisions"]),
    ("germ", "germ", "LaurentGerm",
     ["__init__", "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scaled", "shifted",
      "exponents_within", "to_str", "zero", "one", "monomial", "tail_only"]),
    ("curve", "curve", "CuspCurve",
     ["__init__", "from_spec", "rado_germ", "is_holomorphic_at_cusp",
      "is_weakly_holomorphic", "holomorphy_witness", "min_power", "stable_power",
      "floor_multiplier_check", "exact_multiplier_check", "pullback_monomial",
      "weak_generator_count", "weak_generation_report", "covering_degree",
      "whitney_cone", "order_of_flatness", "weierstrass"]),
    ("curve", "curve", "WeierstrassPoly",
     ["for_monomial", "coefficient_poly", "annihilates_pullback", "factored_str"]),
    ("surgery", "surgery", None,
     ["validate_star", "make_global_rado", "no_global_power_witness", "n_omega",
      "check_section_power"]),
    ("surgery", "surgery", "SurgeryCurve", ["build_standard", "site"]),
    ("surgery", "surgery", "Site", ["ideal_exponent", "ideal_contains", "decision_for_power"]),
    ("nagata", "nagata", None, ["nagata_mul", "nagata_pow", "identity_section"]),
    ("nagata", "nagata", "LaurentObject",
     ["__add__", "__neg__", "__mul__", "__pow__", "scaled", "to_str",
      "extends_across_origin", "monomial", "essential_unit"]),
    ("nagata", "nagata", "DualSection", ["__add__", "extends_across_origin", "to_str"]),
    ("cli", "cli", None, ["main"]),
]

_FOLDED = "semigroup.NumericalSemigroup.contains"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.overhead = array("d")  # wrapper time around the span, charged to it
        self.folded_calls = array("i")  # contains calls folded into this span
        self.folded_s = array("d")
        self.folded_overhead = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._scan_depth = 0
        self.counts: dict[str, float] = {}
        self.root_folded_calls = 0
        self.root_folded_s = 0.0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for layer, mod_name, owner_name, attrs in TARGETS:
            module = sys.modules[f"cuspgerms.{mod_name}"]
            owner = module if owner_name is None else getattr(module, owner_name)
            for attr in attrs:
                raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
                label = f"{layer}.{owner_name + '.' if owner_name else ''}{attr}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(label, raw.__func__))
                else:
                    wrapped = self._wrap(label, raw)
                self._replace(owner, attr, raw, wrapped)
                if owner_name is None:
                    # functions imported by name elsewhere in the package
                    for other in list(sys.modules.values()):
                        name = getattr(other, "__name__", "")
                        if (name == "cuspgerms" or name.startswith("cuspgerms.")) \
                                and other is not module and other.__dict__.get(attr) is raw:
                            self._replace(other, attr, raw, wrapped)

    def _replace(self, owner, attr, raw, wrapped) -> None:
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------------------

    def _name_id(self, label: str) -> int:
        nid = self._name_ids.get(label)
        if nid is None:
            nid = self._name_ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def _wrap(self, label: str, fn):
        if label == _FOLDED:
            return self._wrap_folded(fn)
        nid = self._name_id(label)
        post = _POST.get(label)
        stack = self._stack
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op
        overhead, fcalls, fsecs = self.overhead, self.folded_calls, self.folded_s
        fovh = self.folded_overhead
        tracer = self
        is_scan = label in ("curve.CuspCurve.min_power", "curve.CuspCurve.stable_power")

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            start.append(0.0)
            end.append(0.0)
            overhead.append(0.0)
            fcalls.append(0)
            fsecs.append(0.0)
            fovh.append(0.0)
            stack.append(idx)
            if is_scan:
                tracer._scan_depth += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if is_scan:
                    tracer._scan_depth -= 1
                if post is not None:
                    post(tracer, args, result)
                start[idx] = t0
                end[idx] = t1
                overhead[idx] = perf_counter() - t_in - (t1 - t0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def _wrap_folded(self, fn):
        stack = self._stack
        fcalls, fsecs, fovh = self.folded_calls, self.folded_s, self.folded_overhead
        tracer = self

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
            if stack:
                top = stack[-1]
                fcalls[top] += 1
                fsecs[top] += t1 - t0
                fovh[top] += perf_counter() - t1
            else:
                tracer.root_folded_calls += 1
                tracer.root_folded_s += t1 - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def bump(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- results ---------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\tcontains_calls\tcontains_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.parent[i]}\t{self.op[i]}\t{self.folded_calls[i]}\t"
                         f"{self.folded_s[i]!r}\n")

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: self time; per span name: calls and inclusive time; and
        the wrappers' own time."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i] + self.overhead[i]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        names = self.names
        for i in range(n):
            label = names[self.name[i]]
            dur = self.end[i] - self.start[i]
            folded = self.folded_s[i]
            self_s[label.split(".", 1)[0]] += (dur - covered[i] - folded
                                               - self.folded_overhead[i])
            self_s["semigroup"] += folded
            calls[label] = calls.get(label, 0) + 1
            inclusive[label] = inclusive.get(label, 0.0) + dur
        self_s["semigroup"] += self.root_folded_s
        calls[_FOLDED] = int(sum(self.folded_calls)) + self.root_folded_calls
        inclusive[_FOLDED] = sum(self.folded_s) + self.root_folded_s
        bookkeeping = sum(self.overhead) + sum(self.folded_overhead)
        return {"self_s": self_s, "calls": calls, "inclusive_s": inclusive,
                "bookkeeping_s": bookkeeping}


# -- per-call counters, computed after the span's clock stopped ------------------------


def _germ_stats(tracer: Tracer, germ) -> None:
    if germ is None or germ is NotImplemented:
        return
    bits = 0
    terms = 0
    for _, c in germ.items():
        terms += 1
        for part in (c.re, c.im):
            bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    tracer.peak("germ.peak_terms", terms)
    tracer.peak("germ.peak_coeff_bits", bits)


def _post_mul(tracer, args, result):
    a, b = args
    if result is None or result is NotImplemented:
        return
    tracer.bump("germ.mul_term_pairs", len(a.exponents()) * len(b.exponents()))
    tracer.bump("germ.terms_out", len(result.exponents()))
    if tracer._scan_depth:
        tracer.bump("curve.scan_muls")
    _germ_stats(tracer, result)


def _post_germ(tracer, args, result):
    _germ_stats(tracer, result)


def _post_decide(tracer, args, result):
    curve, germ = args
    if result is not None:
        kind = result.kind if result.kind in ("yes", "no") else "unknown"
        tracer.bump(f"curve.decide_{kind}")
    c = (curve.p - 1) * (curve.q - 1)
    exps = germ.exponents()
    tracer.bump("curve.stored_terms", len(exps))
    tracer.bump("curve.dead_terms", sum(1 for e in exps if e >= c))


def _post_validate(tracer, args, result):
    tracer.bump("surgery.validate_sites", len(args[0]))


_POST = {
    "germ.LaurentGerm.__mul__": _post_mul,
    "germ.LaurentGerm.__pow__": _post_germ,
    "germ.LaurentGerm.__add__": _post_germ,
    "germ.parse_germ": _post_germ,
    "curve.CuspCurve.is_holomorphic_at_cusp": _post_decide,
    "surgery.validate_star": _post_validate,
}
