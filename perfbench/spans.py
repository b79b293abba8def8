"""Span tracing for the traced benchmark run, from outside the program.

Each traced function is replaced by a wrapper wherever flagvec's callers
look it up (a module attribute, a `from ... import` binding, or a class
attribute), so nested calls nest as spans.  Spans stay in memory as
[name, start, end, parent] and leave the worker once, at its end.
Only the traced worker imports this module.
"""

import contextlib
import sys
import time

# (module, attribute, span name).  "Class.method" patches the class.
TARGETS = [
    ("flagvec.lattice", "build_simplex", "lattice.build"),
    ("flagvec.lattice", "build_cube", "lattice.build"),
    ("flagvec.lattice", "build_crosspolytope", "lattice.build"),
    ("flagvec.lattice", "build_cyclic", "lattice.build"),
    ("flagvec.lattice", "build_polygon", "lattice.build"),
    ("flagvec.lattice", "FaceLattice.__init__", "lattice.build"),
    ("flagvec.lattice", "FaceLattice.flag_vector", "lattice.flag_vector"),
    ("flagvec.lattice", "FaceLattice.is_eulerian", "lattice.is_eulerian"),
    ("flagvec.lattice", "FaceLattice.dual", "lattice.dual"),
    ("flagvec.lattice", "FaceLattice.interval", "lattice.interval"),
    ("flagvec.lattice", "FaceLattice.quotient", "lattice.interval"),
    ("flagvec.lattice", "FaceLattice.restriction", "lattice.interval"),
    ("flagvec.cdindex", "ab_index", "cdindex.ab_index"),
    ("flagvec.cdindex", "ab_to_cd", "cdindex.ab_to_cd"),
    ("flagvec.cdindex", "cd_word_to_flag_form", "cdindex.symbolic_cd"),
    ("flagvec.cdindex", "toric_g", "cdindex.toric"),
    ("flagvec.cdindex", "toric_h", "cdindex.toric"),
    ("flagvec.flagalg", "complete_from_sparse", "flagalg.complete_from_sparse"),
    ("flagvec.flagalg", "gds_residuals", "flagalg.gds_residuals"),
    ("flagvec.flagalg", "reduce_index", "flagalg.reduce_index"),
    ("flagvec.forms", "FlagForm.reduced", "forms.reduced"),
    ("flagvec.forms", "check_candidate", "forms.check_candidate"),
    ("flagvec.forms", "sample_feasible_5d", "forms.sample_feasible_5d"),
    ("flagvec.forms", "evaluate_by_face_sum", "forms.evaluate_by_face_sum"),
    ("flagvec.families", "properties", "families.properties"),
    ("flagvec.families", "logconv_scan", "families.logconv_scan"),
    ("flagvec.verify", "corpus", "verify.corpus"),
    ("flagvec.verify", "run_verification", "verify.run_verification"),
]

# Everything inside a symbolic cd-form, including its ab_to_cd solve and
# the flag-form reductions it needs, counts as symbolic_cd.
OPAQUE = {"cdindex.symbolic_cd"}

# Counted calls, not spans: (module, attribute, counter name).
COUNTED = [("flagvec.cdindex", "cd_index", "cdindex.cd_index_calls")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._opaque = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, k: int = 1):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, fn, name: str):
        opaque = name in OPAQUE
        faces = fn.__name__ == "__init__"

        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            idx = self._open(name)
            self._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
                self._close(idx)
            if faces:
                self.count("lattice.faces_built", args[0].face_count())
            return result

        return traced

    def counter(self, fn, name: str):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Patch every target in the loaded flagvec modules."""
        modules = [m for key, m in sys.modules.items()
                   if key == "flagvec" or key.startswith("flagvec.")]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name))
            else:
                _rebind(modules, getattr(owner, attr),
                        self.wrap(getattr(owner, attr), name))
        for module_name, attr, name in COUNTED:
            original = getattr(sys.modules[module_name], attr)
            _rebind(modules, original, self.counter(original, name))


def _rebind(modules, original, replacement):
    """Replace every module-level binding of `original`."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration minus the time of child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out
