"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec names a mode and its inputs.  The worker times importing flagvec,
builds any untimed inputs, makes the timed calls, and prints one JSON line:
set-up time, timed durations, the program's outputs for the parent to check,
and, when the spec asks for tracing, the spans.  Only stdlib modules that the
interpreter loads anyway are imported before flagvec, so the import time is
flagvec's own.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    from flagvec import cli, lattice
    t_import = time.perf_counter()

    import contextlib
    import io
    import json
    import traceback

    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.spans.append(["cli.import", t0, t_import, -1])
        tracer.install()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    def run_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with span("cli.main"):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # what the interpreter does with an uncaught exception
                traceback.print_exc()
                rc = 1
        return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()

    mode = spec["mode"]
    result = {}
    if mode == "import":
        result["setup_s"] = time.perf_counter() - t0
    elif mode in ("verify", "cli"):
        argv = spec["argv"]
        result["setup_s"] = time.perf_counter() - t0
        elapsed, rc, out, err = run_cli(argv)
        result.update(elapsed=elapsed, rc=rc, stdout=out, stderr=err)
    elif mode == "flags":
        build = getattr(lattice, "build_" + spec["family"])
        result["setup_s"] = time.perf_counter() - t0
        start = time.perf_counter()
        L = build(*spec["args"])
        v = L.flag_vector()
        result["elapsed"] = time.perf_counter() - start
        result["flags"] = {",".join(map(str, S)): int(x) for S, x in v.entries.items()}
    elif mode == "eulerian":
        lattices = [getattr(lattice, "build_" + family)(*args)
                    for family, args in spec["lattices"]]
        broken = lattice.FaceLattice(spec["broken"]["d"], spec["broken"]["faces"])
        result["setup_s"] = time.perf_counter() - t0
        result["elapsed"], result["eulerian"] = [], []
        for L in lattices + [broken]:
            start = time.perf_counter()
            verdict = L.is_eulerian()
            result["elapsed"].append(time.perf_counter() - start)
            result["eulerian"].append(verdict)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if tracer:
        result["spans"] = [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]
        result["counts"] = tracer.counts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
