"""Exact flag-vector combinatorics of convex polytopes.

Face lattices of the standard families are enumerated brute-force and serve
as the oracle for everything else: Dehn-Sommerville completion, flag-form
convolutions, cd-indices, toric g-vectors, and the f-vector property checks.
All arithmetic is exact (ints and Fractions); there is no floating point in
any computational path.

Submodules run on first use.  Importing the package runs only ``errors``,
``rational`` and ``records``; ``flagalg``, ``families``, ``forms``,
``lattice``, ``cdindex`` and ``verify`` are in ``sys.modules`` from the start
and each runs its code on the first read of one of its attributes, so a call
compiles only the modules it uses.  That first read holds one lock: another
thread waits until the module has run to its end.  Every public name below is
read from the submodule that defines it.
"""

__version__ = "0.1.0"

import _thread
import sys as _sys
from types import ModuleType as _ModuleType

from . import errors, rational, records

# Read without running a deferred module: what the import system and repr()
# ask of a module in sys.modules.
_METADATA = frozenset({"__class__", "__name__", "__spec__", "__loader__",
                       "__package__", "__file__", "__cached__"})
_lock = _thread.RLock()
_running = set()


class _Deferred(_ModuleType):
    """A submodule whose code has not run yet.  Reading, setting or deleting
    any attribute but its import metadata runs it first."""

    def __getattribute__(self, name):
        if name not in _METADATA:
            _run(self)
        return _ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        _ModuleType.__setattr__(self, name, value)

    def __delattr__(self, name):
        _run(self)
        _ModuleType.__delattr__(self, name)


def _run(module):
    """Run a deferred module's code once.  Another thread waits on the lock
    until it has run; the running thread itself reads it as it stands, as in
    any import."""
    with _lock:
        if type(module) is not _ModuleType and module not in _running:
            _running.add(module)
            try:
                module.__spec__.loader.exec_module(module)
            finally:
                _running.discard(module)
            _ModuleType.__setattr__(module, "__class__", _ModuleType)


def _defer(name):
    """The submodule ``name``, registered in sys.modules with its code not
    yet run, or the module already there."""
    fullname = f"{__name__}.{name}"
    if fullname in _sys.modules:
        return _sys.modules[fullname]
    for finder in _sys.meta_path:  # as the import statement finds it
        spec = finder.find_spec(fullname, __path__)
        if spec is not None:
            break
    else:
        raise ModuleNotFoundError(f"No module named {fullname!r}", name=fullname)
    module = _ModuleType(fullname)
    module.__spec__, module.__loader__, module.__package__ = spec, spec.loader, __name__
    module.__file__, module.__cached__ = spec.origin, spec.cached
    module.__class__ = _Deferred
    _sys.modules[fullname] = module
    return module


flagalg = _defer("flagalg")
families = _defer("families")
forms = _defer("forms")
lattice = _defer("lattice")
cdindex = _defer("cdindex")
verify = _defer("verify")

# Each public name and the submodule that defines it.
_PUBLIC = {
    "errors": (
        "DegreeMismatch", "DeskScaleExceeded", "DimensionMismatch",
        "FaceNotInLattice", "FlagVecError", "IncompleteBasis", "InvalidParams",
        "MissingEntry", "NotEulerian", "UnsupportedDimension"),
    "flagalg": (
        "FlagVector", "FVector", "complete_from_sparse", "euler_check",
        "gds_relation", "gds_pairs", "gds_residuals", "reduce_index",
        "sparse_basis"),
    "lattice": (
        "FaceLattice", "build_crosspolytope", "build_cube", "build_cyclic",
        "build_polygon", "build_simplex"),
    "forms": (
        "FlagForm", "battery", "check_candidate", "convolve", "dual_form",
        "evaluate_by_face_sum", "g_forms", "kalai_5d_form", "kalai_5d_summands",
        "sample_feasible_5d"),
    "cdindex": (
        "AbPolynomial", "CdPolynomial", "ab_index", "ab_to_cd", "cd_coefficient",
        "cd_index", "cd_word_to_flag_form", "cd_words", "stanley_nonneg_check",
        "toric_g", "toric_h"),
    "families": (
        "PropertyReport", "candidate_6d", "candidate_7d", "connected_sum_f",
        "cyclic_f", "cyclic_sum_f", "logconv_scan", "neighborly_gap",
        "properties"),
    "verify": ("VerificationReport", "run_verification"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = [*_HOME, *_PUBLIC, "rational", "records"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    # the names the package held when it ran every submodule at import
    return sorted(name for name in {*globals(), *__all__}
                  if not name.startswith("_")
                  or (name.startswith("__")
                      and name not in ("__all__", "__dir__", "__getattr__")))
