"""Cold-process benchmark for flagvec.

    python3 perfbench/run.py --workload verify-paper --seed 1 --seconds 38 --trace 0

Runs whole rounds of one workload for about --seconds seconds, one process at
a time.  Every timed sample starts in a fresh interpreter with PYTHONPATH at
src/, so no program cache carries over between samples.  Each output is
checked against perfbench/reference.py, which does not use flagvec.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics
(end-to-end with --trace 0, per-layer with --trace 1).  Per-item medians go
to stderr and, with the samples, to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("verify-paper", "lattice-d8", "cli-oneshot")
TIMEOUT_S = 60  # per child process, so that a hung child cannot stall a run for long

FLAGS_D8 = (("cyclic", (8, 14)), ("cube", (8,)), ("crosspolytope", (8,)))
EULERIAN_D7 = (("cube", (7,)), ("crosspolytope", (7,)), ("cyclic", (7, 12)))
KNOWN_FAULTS = (
    ["convolve", '{"d":1,"coeffs":{"0":"1/0"}}', "g0@0"],
    ["convolve", '{"d":1,"coeffs":{"0":0.1}}', "g0@0"],
)

# span name -> per-layer metric, when it is not the span name plus "_s"
SPAN_METRIC = {"cli.main": "cli.main_self_s", "verify.run_verification": "verify.self_s"}
PER_LAYER = (
    "lattice.build_s", "lattice.flag_vector_s", "lattice.is_eulerian_s",
    "lattice.dual_s", "lattice.interval_s",
    "cdindex.ab_index_s", "cdindex.ab_to_cd_s", "cdindex.symbolic_cd_s",
    "cdindex.toric_s",
    "flagalg.complete_from_sparse_s", "flagalg.gds_residuals_s",
    "flagalg.reduce_index_s",
    "forms.reduced_s", "forms.check_candidate_s", "forms.sample_feasible_5d_s",
    "forms.evaluate_by_face_sum_s",
    "families.properties_s", "families.logconv_scan_s",
    "verify.corpus_s", "verify.self_s",
    "cli.main_self_s",
)
COUNTS = ("lattice.faces_built", "cdindex.cd_index_calls")


class Op:
    """A step of a round that makes `count` checked operations.  `timing`
    says which metric its samples enter: "work", "light", or None for none."""

    def __init__(self, name, timing, run, known_fault=False, count=1):
        self.name, self.timing, self.run = name, timing, run
        self.known_fault, self.count = known_fault, count


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.trace = workload, trace
        self.rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # (timing, item, traced) -> seconds per sample
        self.samples: dict[tuple[str, str, bool], list[float]] = {}
        self.setups: list[float] = []
        self.attempted = self.failed = 0
        self.wrong: list[str] = []       # failures outside the known faults
        self.fault_notes: set[str] = set()
        self.layers: list[dict[str, float]] = []  # one per traced round
        self.round_layers: list[dict] = []        # traced worker results
        self.imports: list[float] = []
        self.trace_log: list[dict] = []
        self.cd_cyclic_8_12 = ref.cd_from_ab(
            ref.ab_from_flags(ref.simplicial_flags(ref.cyclic_f(8, 12)), 8), 8)

    # ------------------------------------------------------------------
    # processes

    def worker(self, spec: dict, traced: bool) -> dict:
        """Run perfbench/worker.py once and return its JSON result."""
        spec = dict(spec, trace=traced)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"worker {spec['mode']} exited {proc.returncode}: {tail}")
        result = json.loads(lines[-1])
        self.setups.append(result["setup_s"])
        if traced:
            self.round_layers.append(result)
        return result

    def cli(self, argv: list[str], traced: bool):
        """(seconds, exit code, stdout, stderr) of one one-shot CLI call."""
        start = time.perf_counter()
        if traced:
            # timed from here, like the untraced call, so the difference
            # between the two is the tracing overhead
            r = self.worker({"mode": "cli", "argv": argv}, traced=True)
            return time.perf_counter() - start, r["rc"], r["stdout"], r["stderr"]
        proc = subprocess.run([sys.executable, "-m", "flagvec.cli", *argv],
                              env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
        return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr

    # ------------------------------------------------------------------
    # operations; each run(traced) returns [(item, seconds, problem or None)]

    def cli_op(self, name, timing, argv, check, known_fault=False):
        def run(traced):
            elapsed, rc, out, err = self.cli(argv, traced)
            return [(name, elapsed, _problem(check, rc, out, err))]
        return Op(name, timing, run, known_fault)

    def light_ops(self) -> list[Op]:
        rng = self.rng
        n = rng.randint(8, 60)
        d = rng.randint(3, 8)
        vector = [comb(d + 1, i + 1) + rng.randint(0, 60) for i in range(d)]
        left, right = rng.randint(0, 1), rng.randint(0, 1)
        dl, dr = rng.randint(left, 4), rng.randint(right, 4)
        lo = rng.randint(8, 40)
        hi = lo + rng.randint(0, 30)
        ell = rng.randint(0, 20)
        return [
            self.cli_op("generate", "light", ["generate", "p7n", "-n", str(n)],
                        _check_generate(n)),
            self.cli_op("check", "light", ["check", ",".join(map(str, vector))],
                        _check_verdicts(vector)),
            self.cli_op("convolve", "light",
                        ["convolve", f"g{left}@{dl}", f"g{right}@{dr}"],
                        _check_convolve(left, dl, right, dr)),
            self.cli_op("scan", "light",
                        ["scan", "logconv7", "--n", f"{lo}..{hi}", "--format", "json"],
                        _check_scan(lo, hi)),
            self.cli_op("candidates", "light", ["candidates", "6", "--ell", str(ell)],
                        _check_candidates),
        ]

    def verify_op(self) -> Op:
        seed = self.rng.randint(0, 2**31 - 1)
        argv = ["verify-paper", "--format", "json", "--seed", str(seed)]

        def run(traced):
            r = self.worker({"mode": "verify", "argv": argv}, traced)
            problem = _problem(_check_verify(seed), r["rc"], r["stdout"], r["stderr"])
            return [("verify-paper", r["elapsed"], problem)]
        return Op("verify-paper", "work", run)

    def flags_op(self, family, args) -> Op:
        name = f"flags {family}{args}"
        want = {"cyclic": lambda: ref.simplicial_flags(ref.cyclic_f(*args)),
                "cube": lambda: ref.cube_flags(*args),
                "crosspolytope": lambda: ref.cross_flags(*args)}[family]()

        def run(traced):
            r = self.worker({"mode": "flags", "family": family, "args": args}, traced)
            got = {tuple(int(x) for x in k.split(",") if x): v
                   for k, v in r["flags"].items()}
            problem = None if got == want else "flag vector differs from the closed form"
            return [(name, r["elapsed"], problem)]
        return Op(name, "work", run)

    def eulerian_op(self) -> Op:
        d = self.rng.randint(3, 5)
        faces = ref.cube_faces(d)
        inner = [i for i, (r, _) in enumerate(faces) if 1 <= r <= d - 1]
        del faces[self.rng.choice(inner)]
        spec = {"mode": "eulerian",
                "lattices": [[family, list(args)] for family, args in EULERIAN_D7],
                "broken": {"d": d, "faces": faces}}

        def run(traced):
            r = self.worker(spec, traced)
            out = []
            for (family, args), t, verdict in zip(EULERIAN_D7, r["elapsed"], r["eulerian"]):
                out.append((f"is_eulerian {family}{args}", t,
                            None if verdict is True else "is_eulerian is not True"))
            out.append((None, 0.0, None if r["eulerian"][-1] is False
                        else f"is_eulerian is not False on cube({d}) minus a face"))
            return out
        # three polytopes plus the broken lattice
        return Op("eulerian", "work", run, count=4)

    def import_op(self) -> Op:
        def run(traced):
            self.worker({"mode": "import"}, traced)
            return []
        return Op("import", None, run, count=0)

    def refusal_ops(self) -> list[Op]:
        lo = self.rng.randint(8, 30)
        bad = self.rng.choice([
            ["check", "1,2,3"],
            ["scan", "logconv7", "--n", f"{lo + 5}..{lo}", "--format", "json"],
            ["generate", "cyclic", "-d", "9", "-n", str(lo)],
        ])
        ops = [self.cli_op("refusal", None, bad, _check_refusal)]
        for argv in KNOWN_FAULTS:
            ops.append(self.cli_op("fault " + argv[1], None, argv, _check_refusal,
                                   known_fault=True))
        return ops

    def cd_ops(self) -> list[Op]:
        word = self.rng.choice(ref.cd_words(8))
        want = self.cd_cyclic_8_12.get(word, 0)
        return [
            self.cli_op("cdindex crosspolytope(7)", "work",
                        ["cdindex", "crosspolytope", "-d", "7"],
                        _check_cd(ref.cross_flags(7), 7)),
            self.cli_op("cdindex simplex(8)", "work", ["cdindex", "simplex", "-d", "8"],
                        _check_cd(ref.simplex_flags(8), 8)),
            self.cli_op("cdindex cyclic(8,12) --coeff", "work",
                        ["cdindex", "cyclic", "-d", "8", "-n", "12",
                         "--coeff", ref.compact_word(word)],
                        _check_coeff(want)),
        ]

    def round_ops(self) -> list[Op]:
        ops = self.light_ops()
        if self.workload == "verify-paper":
            ops.append(self.verify_op())
        elif self.workload == "lattice-d8":
            # its rounds are about three times longer than the others', so a
            # second set of light commands evens out the cold-start samples
            ops += self.light_ops() + [self.flags_op(f, a) for f, a in FLAGS_D8]
            ops.append(self.eulerian_op())
        else:
            ops += [self.import_op()] + self.refusal_ops() + self.cd_ops()
        self.rng.shuffle(ops)
        return ops

    # ------------------------------------------------------------------
    # rounds

    def run_round(self, index: int, traced: bool):
        self.round_layers = []
        for op in self.round_ops():
            self.attempted += op.count
            try:
                results = op.run(traced)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                results = [(op.name, None, str(exc))] * op.count
            for item, seconds, problem in results:
                if problem is not None:
                    self.failed += 1
                    if op.known_fault:
                        self.fault_notes.add(f"{op.name}: {problem}")
                    else:
                        self.wrong.append(f"round {index} {item or op.name}: {problem}")
                elif op.timing and item is not None:
                    self.samples.setdefault((op.timing, item, traced), []).append(seconds)
        if traced:
            self.fold_trace(index)

    def fold_trace(self, index: int):
        import spans

        totals = dict.fromkeys(PER_LAYER, 0.0) | dict.fromkeys(COUNTS, 0)
        for result in self.round_layers:
            for name, value in spans.self_times(result["spans"]).items():
                if name == "cli.import":
                    self.imports.append(value)
                    continue
                totals[SPAN_METRIC.get(name, name + "_s")] += value
            for name, value in result["counts"].items():
                totals[name] += value
            self.trace_log.append({"round": index, "spans": result["spans"],
                                   "counts": result["counts"]})
        self.layers.append(totals)

    def work_s(self, traced: bool) -> float:
        """Sum over the workload's work items of each item's median."""
        return sum(statistics.median(v) for (timing, _, t), v in self.samples.items()
                   if timing == "work" and t == traced)

    def metrics(self) -> dict:
        """name -> (value, unit)"""
        if self.trace:
            out = {name: (statistics.median(r[name] for r in self.layers),
                          "count" if name in COUNTS else "s")
                   for name in PER_LAYER + COUNTS}
            out["cli.import_s"] = (statistics.median(self.imports), "s")
            out["trace.overhead_s"] = (self.work_s(True) - self.work_s(False), "s")
            return out
        light = [s for (timing, _, _), v in self.samples.items()
                 if timing == "light" for s in v]
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return {
            "work_s": (self.work_s(False), "s"),
            "cold_start_ms": (1000 * statistics.median(light), "ms"),
            "setup_s": (statistics.median(self.setups), "s"),
            "peak_rss_mb": (rss, "MiB"),
        }

    def items(self) -> dict:
        return {f"{item}{' traced' if t else ''}": {
                    "median_s": statistics.median(v), "samples": v}
                for (_, item, t), v in sorted(self.samples.items())}


# ----------------------------------------------------------------------
# output checks: each takes (exit code, stdout, stderr) and returns None or
# the reason the output is wrong


def _problem(check, rc, out, err):
    try:
        return check(rc, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _doc(rc, out, err) -> dict:
    if rc != 0:
        raise ValueError(f"exit {rc}: {err.strip()[-200:]}")
    return json.loads(out)


def _check_generate(n):
    def check(rc, out, err):
        doc = _doc(rc, out, err)
        got = tuple(int(x) for x in doc["f"])
        return None if doc["d"] == 7 and got == ref.p7n(n) else f"p7n({n}) = {got}"
    return check


def _check_verdicts(vector):
    want = ref.verdicts(vector)

    def check(rc, out, err):
        doc = _doc(rc, out, err)
        got = {k: cell["holds"] for k, cell in doc["properties"].items()}
        if got != want or doc["euler"] != ref.euler_holds(vector):
            return f"verdicts {got}, euler {doc['euler']} for {vector}"
        return None
    return check


def _check_convolve(left, dl, right, dr):
    want = ref.convolve(ref.g_form(left, dl), dl, ref.g_form(right, dr), dr)

    def check(rc, out, err):
        doc = _doc(rc, out, err)
        got = {tuple(int(ch) for ch in k): Fraction(v) for k, v in doc["coeffs"].items()}
        return None if doc["d"] == dl + dr + 1 and got == want else f"convolution {got}"
    return check


def _check_scan(lo, hi):
    def check(rc, out, err):
        rows = _doc(rc, out, err)["rows"]
        if [row["n"] for row in rows] != list(range(lo, hi + 1)):
            return "wrong rows"
        for row in rows:
            f = ref.p7n(row["n"])
            want = [Fraction(f[k] ** 2, f[k - 1] * f[k + 1]) for k in (1, 2, 3)]
            if [Fraction(row[r]) for r in ("r1", "r2", "r3")] != want:
                return f"ratios at n = {row['n']}"
        return None
    return check


def _check_candidates(rc, out, err):
    doc = _doc(rc, out, err)
    d = doc["d"]
    head = [int(doc["sparse"][str(i)]) for i in range(d - 1)]
    f = head + [ref.euler_last(head, d)]
    got = [int(x) for x in doc["f"]]
    verdicts = {k: cell["holds"] for k, cell in doc["properties"].items()}
    if got != f or verdicts != ref.verdicts(f) or doc["euler_ok"] is not True:
        return f"candidate f-vector {got} or verdicts {verdicts}"
    return None


def _check_verify(seed):
    def check(rc, out, err):
        doc = _doc(rc, out, err)
        bad = [c["name"] for c in doc["checks"] if not c["passed"]]
        by_name = {c["name"]: c for c in doc["checks"]}
        f58 = tuple(int(x) for x in
                    by_name["cyclic5-8-enumeration"]["computed"].strip("()").split(","))
        if bad or doc["passed"] is not True:
            return f"failed checks {bad}"
        if f58 != ref.cyclic_f(5, 8):
            return f"cyclic(5,8) f-vector {f58}"
        if by_name["unimodal-5d-random-feasible"]["note"] != f"seed {seed}":
            return "the seed did not reach the sampler"
        return None
    return check


def _check_cd(flags, d):
    def check(rc, out, err):
        doc = _doc(rc, out, err)
        cd = ref.parse_cd(doc["cd"])
        if cd != {w: Fraction(c) for w, c in doc["coeffs"].items()}:
            return "printed cd-index and coefficient table disagree"
        if ref.flags_from_ab(ref.expand_cd(cd), d) != flags:
            return "cd-index does not expand to the closed-form flag numbers"
        return None
    return check


def _check_coeff(want):
    def check(rc, out, err):
        got = Fraction(_doc(rc, out, err)["value"])
        return None if got == want else f"coefficient {got}, want {want}"
    return check


def _check_refusal(rc, out, err):
    lines = err.strip().splitlines()
    if rc == 2 and not out and len(lines) == 1 and lines[0].startswith("error:"):
        return None
    shown = lines[-1] if lines else " ".join(out.split())
    return f"exit {rc}, not a one-line refusal: {shown[:100]}"


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flagvec" / "cli.py").is_file():
        print(f"error: no flagvec sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        # untimed: byte-compiles the package once and warms the file cache
        bench.worker({"mode": "import"}, traced=False)
    except RuntimeError as exc:
        print(f"error: flagvec does not import: {exc}", file=sys.stderr)
        return 2
    bench.setups.clear()

    start = time.perf_counter()
    rounds = 0
    while True:
        began = time.perf_counter()
        bench.run_round(rounds, traced=bench.trace and rounds % 2 == 1)
        rounds += 1
        now = time.perf_counter()
        # stop when one more round would end over half a round late
        if rounds >= 1 + bench.trace and now - start + (now - began) / 2 > args.seconds:
            break

    result = {"correct": not bench.wrong, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in bench.metrics().items()}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    items = bench.items()
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                  seconds=time.perf_counter() - start, items=items,
                  wrong=bench.wrong, known_faults=sorted(bench.fault_notes),
                  python=sys.version.split()[0], nproc=os.cpu_count())
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if bench.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(bench.trace_log))
    print("per-item medians:", file=sys.stderr)
    for item, m in items.items():
        print(f"  {item:40s} {m['median_s']:.4f} s  n={len(m['samples'])}",
              file=sys.stderr)
    for line in bench.wrong + sorted(bench.fault_notes):
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
