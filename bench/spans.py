"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each `starcurves` layer at every
place the function is bound (its own module and every module that imported
it by name), records one span per call, and turns the spans of one round
into the per-layer metrics.  Nothing inside the program is changed: the
wrappers are installed before a round and removed after it.

A span is a list [name, start, end, parent, op]: `parent` is the index of
the enclosing span (None at the top) and `op` the index of the operation
the call belongs to (None outside every operation).  Start and end are
wall-clock readings; `to_reference` turns them into reference seconds
(speed.py).  Count hooks run off the reference clock, so the work of
counting is in no span, neither the one it counts nor any enclosing one.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from math import lcm

from speed import ReferenceClock

#: (module, attribute) of each traced function; `Class.method` names a
#: method.  The span is named `module.attribute`, except in SPAN_NAMES.
#: `fields` is left out: it works per scalar inside the hot loops of
#: `polynomials` and `matrices`, so wrapping it would distort the trace more
#: than it measures.  `formulas` is closed-form arithmetic.
LAYER_FUNCTIONS = [
    ("matrices", "ExactMatrix.rank"),
    ("polynomials", "HomogeneousPoly.__mul__"),
    ("polynomials", "HomogeneousPoly.evaluate"),
    ("polynomials", "perturbation_coefficient"),
    ("tangent", "build_q_forms"),
    ("tangent", "random_multipliers"),
    ("tangent", "ideal_component_dim"),
    ("tangent", "certify"),
    ("tangent", "structured_multipliers"),
    ("tangent", "evaluation_submatrix_rank"),
    ("starconfig", "random_general_forms"),
    ("starconfig", "build_star"),
    ("starconfig", "hilbert_function"),
    ("pnstar", "build_pn_star"),
    ("pnstar", "pn_tangent_dimension"),
    ("reference_cases", "luroth_case_dimension"),
    ("reference_cases", "six_line_matrix_rank"),
    ("reference_cases", "block_matrix_rank"),
    ("cli", "emit_rows"),
]

#: Per-layer metrics of the traced run: (name, unit, better).  A name ending
#: in `.s` is the inclusive time of the span of that name, `.self_s` its time
#: minus the time its traced children cover, `.calls` its number of spans;
#: the other names are counts recorded at the span boundaries.
PER_LAYER = [
    ("matrices.rank_gf.s", "s", "lower"),
    ("matrices.rank_gf.calls", "count", "lower"),
    ("matrices.rank_gf.entries", "count", "lower"),
    ("matrices.rank_q.s", "s", "lower"),
    ("matrices.rank_q.calls", "count", "lower"),
    ("matrices.rank_q.entries", "count", "lower"),
    ("matrices.rank_q.max_bits", "bits", "lower"),
    ("matrices.rank.useful_row_ratio", "ratio", "higher"),
    ("polynomials.mul.calls", "count", "lower"),
    ("polynomials.mul.term_products", "count", "lower"),
    ("polynomials.mul.self_s", "s", "lower"),
    ("polynomials.evaluate.calls", "count", "lower"),
    ("polynomials.evaluate.s", "s", "lower"),
    ("polynomials.perturbation_coefficient.s", "s", "lower"),
    ("tangent.build_q_forms.s", "s", "lower"),
    ("tangent.random_multipliers.s", "s", "lower"),
    ("tangent.ideal_component_dim.self_s", "s", "lower"),
    ("tangent.certify.s", "s", "lower"),
    ("tangent.structured_multipliers.s", "s", "lower"),
    ("tangent.evaluation_submatrix_rank.s", "s", "lower"),
    ("starconfig.random_general_forms.s", "s", "lower"),
    ("starconfig.build_star.s", "s", "lower"),
    ("starconfig.hilbert_function.self_s", "s", "lower"),
    ("pnstar.build_pn_star.s", "s", "lower"),
    ("pnstar.pn_tangent_dimension.self_s", "s", "lower"),
    ("reference_cases.luroth_case_dimension.s", "s", "lower"),
    ("reference_cases.six_line_matrix_rank.s", "s", "lower"),
    ("reference_cases.block_matrix_rank.s", "s", "lower"),
    ("cli.emit_rows.s", "s", "lower"),
]

class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    """Spans and counts of one round, kept in memory."""

    def __init__(self, clock: ReferenceClock):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self.missing: list[str] = []

    def to_reference(self) -> None:
        """Turn the spans' wall-clock readings into reference seconds, once
        the clock has stopped."""
        to_ref = self.clock.converter()
        for span in self.spans:
            span[1], span[2] = to_ref(span[1]), to_ref(span[2])

    def wrap(self, fn, name, hook=None):
        """`fn` recording one span per call; `name` may be a function of the
        call's arguments.  `hook(counts, args)` runs off the clock before the
        call and may return a function that receives the call's result."""
        spans, stack, counts = self.spans, self.stack, self.counts
        now, off_clock = self.clock.now, self.clock.off_clock

        def traced(*args, **kwargs):
            rec = [name(args) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                after = off_clock(hook, counts, args) if hook else None
                rec[1] = now()
                result = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if after:
                off_clock(after, result)
            return result

        return traced

    def install(self, patches: Patches):
        """Wrap every traced function wherever a `starcurves` module binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "starcurves" or k.startswith("starcurves.")]
        for key in LAYER_FUNCTIONS:
            mod_name, attr = key
            name = SPAN_NAMES.get(key, f"{mod_name}.{attr}")
            module = importlib.import_module(f"starcurves.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or method not in owner.__dict__:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                patches.set(owner, method, self.wrap(owner.__dict__[method],
                                                     name, HOOKS.get(key)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(original, name, HOOKS.get(key))
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is original:
                        patches.set(m, bound, wrapped)


def _rank_span(args) -> str:
    prime_field = sys.modules["starcurves.fields"].PrimeField
    if isinstance(args[0].field, prime_field):
        return "matrices.rank_gf"
    return "matrices.rank_q"


def _rank_hook(counts, args):
    m = args[0]
    key = _rank_span(args)
    counts[key + ".entries"] += m.nrows * m.ncols
    counts["matrices.rank.rows"] += m.nrows
    if key == "matrices.rank_q":
        counts[key + ".max_bits"] = max(counts[key + ".max_bits"],
                                        cleared_bits(m.rows))

    def after(rank):
        counts["matrices.rank.rank"] += rank
    return after


def _mul_hook(counts, args):
    a, b = args
    counts["polynomials.mul.term_products"] += len(a.terms) * len(b.terms)


#: Span names that `module.attribute` would give badly; the rank's depends
#: on the field of the matrix.
SPAN_NAMES = {
    ("matrices", "ExactMatrix.rank"): _rank_span,
    ("polynomials", "HomogeneousPoly.__mul__"): "polynomials.mul",
    ("polynomials", "HomogeneousPoly.evaluate"): "polynomials.evaluate",
}

#: Counts recorded at the span boundary.
HOOKS = {
    ("matrices", "ExactMatrix.rank"): _rank_hook,
    ("polynomials", "HomogeneousPoly.__mul__"): _mul_hook,
}


def cleared_bits(rows) -> int:
    """Largest entry bit length once each row of rationals is scaled by the
    lcm of its denominators."""
    bits = 0
    for row in rows:
        scale = lcm(*(x.denominator for x in row)) if row else 1
        for x in row:
            bits = max(bits, abs(x.numerator * (scale // x.denominator))
                       .bit_length())
    return bits


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """The PER_LAYER metrics of one traced round."""
    inclusive, own, calls = Counter(), Counter(), Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        # a call nested in a call of the same name is already inside it
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            inclusive[name] += end - start
    for (name, *_), t in zip(spans, self_times(spans)):
        own[name] += t
    out = {}
    for metric, _, _ in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = inclusive[span]
        elif kind == "self_s":
            out[metric] = own[span]
        elif kind == "calls":
            out[metric] = calls[span]
        elif metric == "matrices.rank.useful_row_ratio":
            rows = counts.get("matrices.rank.rows", 0)
            out[metric] = counts.get("matrices.rank.rank", 0) / rows if rows else 0.0
        else:
            out[metric] = counts.get(metric, 0)
    return out
