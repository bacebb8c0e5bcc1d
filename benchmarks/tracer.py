"""
Span tracing of heckeverify from outside the package.

``install()`` replaces the public functions and methods listed in TARGETS
with wrappers that record one span per call: target index, parent span,
start and end (``time.perf_counter``).  Spans are kept in flat arrays in
memory and summarised (calls, self time, outermost inclusive time per
target) after the run.  Self time is a span's duration minus the time
covered by its child spans.

A function imported by value (``from .formal_series import fs_inv``) is a
separate global in every importing module, so ``install`` rebinds every
module global that is the original function object, in every loaded
``heckeverify`` module.  The coverage self-test in ``run.py`` compares the
call counts recorded here with cProfile's, which catches a reference this
misses.
"""

import importlib
import sys
import time
from array import array

# (layer, span name, attribute path in the layer's module).  The layer is
# the module of src/heckeverify the function belongs to.  Only names that
# other modules call are listed: anything unlisted runs inside its
# caller's span and is counted in the caller's self time.
TARGETS = [
    ("root_datum", "build", "build_root_datum"),
    ("root_datum", "cartan_matrix", "cartan_matrix"),
    ("root_datum", "read_cartan_file", "read_cartan_file"),
    ("root_datum", "apply", "apply"),
    ("root_datum", "simple", "RootDatum.simple"),
    ("root_datum", "left_mul", "RootDatum.left_mul"),
    ("root_datum", "mul", "RootDatum.mul"),
    ("root_datum", "inverse", "RootDatum.inverse"),
    ("root_datum", "braid_order", "RootDatum.braid_order"),
    ("lattice_algebra", "ga_mul", "GroupAlgebraElement.__mul__"),
    ("lattice_algebra", "ga_add", "GroupAlgebraElement.__add__"),
    ("lattice_algebra", "ga_neg", "GroupAlgebraElement.__neg__"),
    ("lattice_algebra", "ga_eq", "GroupAlgebraElement.__eq__"),
    ("lattice_algebra", "ga_scale", "GroupAlgebraElement.scale"),
    ("lattice_algebra", "weyl_apply", "GroupAlgebraElement.weyl_apply"),
    ("lattice_algebra", "substitute", "GroupAlgebraElement.substitute"),
    ("lattice_algebra", "demazure_quotient", "demazure_quotient"),
    ("lattice_algebra", "mul_by_scriptG", "mul_by_scriptG"),
    ("affine_hecke", "h_mul", "h_mul"),
    ("affine_hecke", "h_add", "HeckeElement.__add__"),
    ("affine_hecke", "h_neg", "HeckeElement.__neg__"),
    ("affine_hecke", "h_eq", "HeckeElement.__eq__"),
    ("affine_hecke", "h_scale_left", "HeckeElement.scale_left"),
    ("affine_hecke", "ts_inverse", "ts_inverse"),
    ("affine_hecke", "koszul_map", "koszul_map"),
    ("affine_hecke", "duality_map", "duality_map"),
    ("affine_hecke", "parity_map", "parity_map"),
    ("affine_hecke", "map_apply", "_GeneratorMap.__call__"),
    ("affine_hecke", "asph_act_left", "asph_act_left"),
    ("formal_series", "mul", "FormalSeries.__mul__"),
    ("formal_series", "add", "FormalSeries.__add__"),
    ("formal_series", "neg", "FormalSeries.__neg__"),
    ("formal_series", "truncate", "FormalSeries.truncate"),
    ("formal_series", "scale", "FormalSeries.scale"),
    ("formal_series", "mul_monomial", "FormalSeries.mul_monomial"),
    ("formal_series", "eq", "FormalSeries.eq"),
    ("formal_series", "diff", "diff"),
    ("formal_series", "exp", "fs_exp"),
    ("formal_series", "inv", "fs_inv"),
    ("formal_series", "div_linear", "fs_div_linear"),
    ("formal_series", "weyl", "fs_weyl"),
    ("formal_series", "negate_r", "fs_negate_r"),
    ("formal_series", "set_r_zero", "fs_set_r_zero"),
    ("graded_hecke", "gh_mul", "gh_mul"),
    ("graded_hecke", "g_add", "GradedElement.__add__"),
    ("graded_hecke", "g_neg", "GradedElement.__neg__"),
    ("graded_hecke", "g_scale_left", "GradedElement.scale_left"),
    ("graded_hecke", "g_truncate", "GradedElement.truncate"),
    ("graded_hecke", "g_eq", "GradedElement.eq"),
    ("graded_hecke", "demazure_series", "demazure_series"),
    ("graded_hecke", "fourier_map", "fourier_map"),
    ("graded_hecke", "todd_eB", "todd_eB"),
    ("graded_hecke", "conj_eB", "conj_eB"),
    ("graded_hecke", "g_asph_act", "g_asph_act"),
    ("lusztig", "series_of_group_algebra", "series_of_group_algebra"),
    ("lusztig", "unit_factor", "unit_factor"),
    ("lusztig", "map_apply", "_LusztigMap.__call__"),
    ("lusztig", "lusztig_l", "lusztig_l"),
    ("lusztig", "lusztig_r", "lusztig_r"),
    ("lusztig", "pipeline_K", "pipeline_K"),
    ("lusztig", "pipeline_H", "pipeline_H"),
    ("lusztig", "transport", "transport"),
    ("lusztig", "difference_times_scriptG", "difference_times_scriptG"),
    ("verify", "presentation", "check_presentation"),
    ("verify", "morphisms", "check_morphisms"),
    ("verify", "diagram", "check_diagram"),
    ("verify", "display", "check_display_identity"),
    ("verify", "modules", "check_modules"),
    ("verify", "run_suites", "run_suites"),
    ("verify", "hecke_generators", "hecke_generators"),
    ("cli", "run", "run"),
]

LAYERS = ("root_datum", "lattice_algebra", "affine_hecke", "formal_series",
          "graded_hecke", "lusztig", "verify", "cli")

MUL = "formal_series.mul"


def span_name(target):
    return "%s.%s" % (target[0], target[1])


def _resolve(target):
    """(owner, attribute, original function) or None if the name is gone."""
    mod = importlib.import_module("heckeverify." + target[0])
    owner, _, attr = target[2].rpartition(".")
    owner = getattr(mod, owner, None) if owner else mod
    fn = vars(owner).get(attr) if owner is not None else None
    if not callable(fn):
        return None
    return owner, attr, fn


def code_key(fn):
    """Key under which cProfile reports ``fn``: (file, first line, name)."""
    code = fn.__code__
    return "%s:%d:%s" % (code.co_filename, code.co_firstlineno, code.co_name)


def code_keys():
    """{span name: cProfile key} for every target that exists."""
    out = {}
    for target in TARGETS:
        got = _resolve(target)
        if got is not None:
            out[span_name(target)] = code_key(got[2])
    return out


class Tracer:
    """Records spans of the wrapped calls of one process."""

    def __init__(self):
        self.names = [span_name(t) for t in TARGETS]
        self.missing = []
        self.span_target = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.pairs_tried = 0
        self.pairs_kept = 0
        self.terms_peak = 0

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "heckeverify"
                                         or name.startswith("heckeverify."))]
        for tid, target in enumerate(TARGETS):
            got = _resolve(target)
            if got is None:
                self.missing.append(self.names[tid])
                continue
            owner, attr, fn = got
            wrapper = self._wrap(fn, tid, self.names[tid] == MUL)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, tid, count_pairs):
        span_target = self.span_target
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(span_target)
            span_target.append(tid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if count_pairs:
                tracer._count_mul(args[0], args[1], result)
            return result

        return wrapper

    def _count_mul(self, a, b, result):
        """Term pairs the product tries, and those of total degree <= order."""
        order = min(a.order, b.order)
        self.pairs_tried += len(a.coeffs) * len(b.coeffs)
        by_degree = [0] * (order + 1)
        for e in b.coeffs:
            d = sum(e)
            if d <= order:
                by_degree[d] += 1
        for d in range(1, order + 1):
            by_degree[d] += by_degree[d - 1]
        for e in a.coeffs:
            d = sum(e)
            if d <= order:
                self.pairs_kept += by_degree[order - d]
        self.terms_peak = max(self.terms_peak, len(a.coeffs), len(b.coeffs),
                              len(result.coeffs))

    def write(self, path):
        """Write the spans: a JSON header line, then the four arrays."""
        import json
        with open(path, "wb") as fh:
            fh.write(json.dumps({
                "names": self.names,
                "count": len(self.span_target),
                "arrays": [["target", "i"], ["parent", "i"],
                           ["start", "d"], ["end", "d"]],
            }).encode() + b"\n")
            for arr in (self.span_target, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)

    def summary(self):
        """{span name: {"calls", "self_s", "s"}} plus the mul counters.

        ``s`` is the inclusive time of the outermost spans of a name, so a
        call nested in a call of the same name is not counted twice.
        """
        n = len(self.span_target)
        target, parent = self.span_target, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl = [0.0] * len(self.names)
        for i in range(n):
            tid = target[i]
            calls[tid] += 1
            self_s[tid] += dur[i] - child[i]
            p = parent[i]
            while p >= 0 and target[p] != tid:
                p = parent[p]
            if p < 0:
                incl[tid] += dur[i]
        spans = {name: {"calls": calls[t], "self_s": self_s[t], "s": incl[t]}
                 for t, name in enumerate(self.names) if name not in self.missing}
        return {
            "spans": spans,
            "missing": self.missing,
            "span_count": n,
            "mul_pairs_tried": self.pairs_tried,
            "mul_pairs_kept": self.pairs_kept,
            "terms_peak": self.terms_peak,
        }
