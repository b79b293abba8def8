"""Submodules run on first use.  Each check runs in a fresh interpreter, and
reads a module's namespace with ``object.__getattribute__``, which runs
nothing: ``exec`` puts ``__builtins__`` there as a module's code starts."""

import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import flagvec

SRC = str(pathlib.Path(flagvec.__file__).parents[1])
DEFERRED = ("flagalg", "families", "forms", "lattice", "cdindex", "verify")
SUBMODULES = {*DEFERRED, "errors", "rational", "records"}

RAN = f"""
def ran():
    import sys
    return [name for name in {DEFERRED!r} if "__builtins__"
            in object.__getattribute__(sys.modules["flagvec." + name], "__dict__")]
"""


def _python(code: str):
    """The JSON document that ``code`` prints last, run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", RAN + code],
                         env={**os.environ, "PYTHONPATH": SRC}, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("argv, unrun", [
    (["generate", "p7n", "-n", "10"], {"forms", "lattice", "cdindex", "verify"}),
    (["check", "8,28,52,50,20"], {"forms", "lattice", "cdindex", "verify"}),
    (["scan", "logconv7", "--n", "8..12", "--format", "json"],
     {"forms", "lattice", "cdindex", "verify"}),
    (["convolve", "g0@3", "g1@3"], {"lattice", "cdindex", "verify"}),
    (["candidates", "6", "--ell", "3"], {"lattice", "cdindex", "verify"}),
    # the check sees a module run
    (["cdindex", "simplex", "-d", "3"], {"verify"}),
])
def test_a_command_runs_only_the_modules_it_uses(argv, unrun):
    rc, ran = _python(f"""
import contextlib, io, json
from flagvec.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main({argv!r})
print(json.dumps([rc, ran()]))
""")
    assert rc == 0
    assert set(ran) == set(DEFERRED) - unrun


def test_the_package_import_runs_no_deferred_module_and_keeps_its_names():
    ran, names, kept = _python("""
import importlib, json
import flagvec
before, names = ran(), dir(flagvec)
lattice = flagvec.lattice
importlib.reload(flagvec)  # keeps each submodule, as an eager import did
# a write or a deletion runs the module first, so that its code cannot undo it
flagvec.forms.battery = None
wrote = ran()
del flagvec.verify.run_verification
kept = [wrote == ["flagalg", "families", "forms"], flagvec.lattice is lattice,
        flagvec.forms.battery is None, hasattr(flagvec.verify, "run_verification")]
print(json.dumps([before, names, kept]))
""")
    assert ran == []
    assert kept == [True, True, True, False]
    star = {}
    exec("from flagvec import *", star)
    del star["__builtins__"]
    assert len(star) == 66
    assert {name for name, value in star.items()
            if isinstance(value, types.ModuleType)} == SUBMODULES
    assert names == sorted([*star, "__builtins__", "__cached__", "__doc__", "__file__",
                            "__loader__", "__name__", "__package__", "__path__",
                            "__spec__", "__version__"])


def test_threads_that_make_their_first_call_together_wait_for_whole_modules():
    # four threads make the process's first public-API call at once; one
    # that read a half-run module would raise or answer differently
    results = _python("""
import json, sys, threading
sys.setswitchinterval(1e-6)
import flagvec

start = threading.Barrier(4)
results = []

def first_call():
    start.wait()
    try:
        v = flagvec.build_cube(3).flag_vector()
        results.append([v.get((0, 2)), flagvec.cd_index(v).canonical_str()])
    except Exception as exc:
        results.append(repr(exc))

threads = [threading.Thread(target=first_call) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(30)
print(json.dumps([results, [thread.is_alive() for thread in threads]]))
""")
    answers, alive = results
    assert alive == [False] * 4
    assert answers == [[24, flagvec.cd_index(flagvec.build_cube(3)).canonical_str()]] * 4
