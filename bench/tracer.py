"""Spans around xfan's public functions, recorded from outside the library.

``Tracer.install`` replaces each target function, in every loaded ``xfan``
module namespace that refers to it (``xfan.fan.classify`` and
``xfan.cones.classify`` alike), with a wrapper that times the call. Methods
are wrapped on their class. Spans are aggregated in memory per name: calls,
inclusive seconds, and self seconds, which is the span's time minus the
time covered by its child spans. A target that no longer exists is listed
in ``absent`` instead of raising, so the benchmark keeps running when a
function is renamed or deleted. Single-threaded use only: the span stack
is shared.
"""

import importlib
import sys
import time

# prefix of the span summary a traced CLI child prints last on stderr
TRACE_MARK = "XFAN_BENCH_TRACE "

# (module, qualified name) of every function the benchmark times.
TARGETS = (
    ("pattern", "enumerate_pattern"),
    ("pattern", "mutate_node"),
    ("pattern", "PatternCatalog.seed_class_count"),
    ("seed", "mutate"),
    ("seed", "validate"),
    ("intmat", "IntMatrix.inverse"),
    ("intmat", "IntMatrix.rank"),
    ("intmat", "integer_kernel_basis"),
    ("intmat", "hnf_rows"),
    ("laurent", "LaurentPolynomial.__mul__"),
    ("laurent", "LaurentPolynomial.__pow__"),
    ("laurent", "divide_exact"),
    ("cones", "classify"),
    ("cones", "conic_membership"),
    ("cones", "canonical_key"),
    ("cones", "build_system"),
    ("fan", "assemble_fan"),
    ("fan", "extreme_rays"),
    ("fan", "locate"),
    ("fan", "theta"),
    ("reptheory", "path_algebra_data"),
    ("reptheory", "knit"),
    ("reptheory", "normal_vector"),
    ("reptheory", "kernel_certificates"),
    ("jsonio", "dumps"),
    ("jsonio", "encode_cone"),
    ("jsonio", "encode_polynomial"),
)


# Counters read off return values at the layer boundary.
def _count_catalog(counters, catalog):
    counters["pattern.nodes"] += len(catalog.nodes)


def _count_terms(counters, poly):
    size = len(getattr(poly, "_terms", ()))
    counters["laurent.terms_out"] += size
    counters["laurent.max_terms"] = max(counters["laurent.max_terms"], size)


def _count_cones(counters, report):
    counters["fan.cones"] += len(report.cones)


def _count_bytes(counters, text):
    counters["jsonio.bytes_out"] += len(text)


OBSERVERS = {
    "pattern.enumerate_pattern": _count_catalog,
    "laurent.LaurentPolynomial.__mul__": _count_terms,
    "laurent.divide_exact": _count_terms,
    "fan.assemble_fan": _count_cones,
    "jsonio.dumps": _count_bytes,
}
COUNTERS = ("pattern.nodes", "laurent.terms_out", "laurent.max_terms", "fan.cones", "jsonio.bytes_out")


class Tracer:
    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent = []
        self._children = []  # child seconds accumulated per open span

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "xfan" or name.startswith("xfan.")]
        for module_name, qualname in self.targets:
            name = f"{module_name}.{qualname}"
            try:
                owner = importlib.import_module(f"xfan.{module_name}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn):
        self.calls[name] = 0
        self.total_s[name] = 0.0
        self.self_s[name] = 0.0
        observe = OBSERVERS.get(name)
        children = self._children
        clock = self.clock

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - inner
            if observe is not None:
                observe(self.counters, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def summary(self):
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counters": self.counters,
            "absent": self.absent,
        }


def merge(summaries):
    """Sum span summaries of several processes; the largest term count is a max."""
    out = {"calls": {}, "total_s": {}, "self_s": {}, "counters": dict.fromkeys(COUNTERS, 0), "absent": []}
    for s in summaries:
        for field in ("calls", "total_s", "self_s"):
            for name, value in s[field].items():
                out[field][name] = out[field].get(name, 0) + value
        for name, value in s["counters"].items():
            if name == "laurent.max_terms":
                out["counters"][name] = max(out["counters"][name], value)
            else:
                out["counters"][name] += value
        out["absent"] = sorted(set(out["absent"]) | set(s["absent"]))
    return out
