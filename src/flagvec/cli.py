"""Command-line front end.

Subcommands: generate, check, flags, cdindex, convolve, candidates, scan,
verify-paper.  All exact numbers are printed as decimal-digit strings or
"p/q"; decimal columns are explicitly marked approximate.  Output is
deterministic for fixed arguments, so it can be golden-tested.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from . import cdindex as cdx
from . import families, flagalg, forms, lattice, verify
from .errors import DegreeMismatch, FlagVecError, InvalidParams, NotEulerian
from .rational import approx_str, is_json_int, rat_to_str

FAMILIES = ("simplex", "cube", "crosspolytope", "cyclic", "polygon", "p7n")
MAX_SCAN_VALUES = 10**5


def _meta(args) -> dict:
    return {} if args.no_meta else {"meta": {"tool": "flagvec", "version": __version__}}


def _emit_json(doc: dict, args):
    print(json.dumps(doc | _meta(args), indent=2))


def _build_family(family: str, d, n) -> "lattice.FaceLattice":
    if family == "simplex":
        _need(d is not None, "simplex needs -d")
        return lattice.build_simplex(d)
    if family == "cube":
        _need(d is not None, "cube needs -d")
        return lattice.build_cube(d)
    if family == "crosspolytope":
        _need(d is not None, "crosspolytope needs -d")
        return lattice.build_crosspolytope(d)
    if family == "cyclic":
        _need(d is not None and n is not None, "cyclic needs -d and -n")
        return lattice.build_cyclic(d, n)
    if family == "polygon":
        _need(n is not None, "polygon needs -n")
        return lattice.build_polygon(n)
    raise InvalidParams(f"unknown family {family!r}")


def _need(cond: bool, message: str):
    if not cond:
        raise InvalidParams(message)


def _family_f_vector(family: str, d, n):
    if family == "p7n":
        _need(n is not None, "p7n needs -n")
        return 7, families.p7n(n)
    L = _build_family(family, d, n)
    return L.d, L.f_vector()


# ----------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    d, f = _family_f_vector(args.family, args.d, args.n)
    if args.format == "csv":
        print(",".join(f"f{i}" for i in range(d)))
        print(",".join(str(c) for c in f))
    else:
        _emit_json({"d": d, "f": [str(c) for c in f]}, args)
    return 0


def _parse_vector(text: str) -> list[int]:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read().strip()
        if text.startswith("{"):
            f = json.loads(text).get("f")
            _need(isinstance(f, list) and all(map(_is_count, f)),
                  '"f" must be a list of integers or decimal-digit strings,'
                  f" got {json.dumps(f)}")
            return [int(x) for x in f]
    parts = [p for p in text.replace(" ", "").split(",") if p]
    return [int(p) for p in parts]


def _is_count(x) -> bool:
    """A JSON integer (not a bool), or a string of decimal digits as
    ``generate`` prints them."""
    if isinstance(x, str):
        return x.isascii() and x.isdigit()
    return is_json_int(x)


def cmd_check(args) -> int:
    from math import comb

    f = _parse_vector(args.vector)
    d = args.d if args.d is not None else len(f)
    _need(d == len(f), f"vector has {len(f)} components, but d={d}")
    _need(d >= 1, "need at least one face count")
    _need(all(c > 0 for c in f), "face counts must be positive")
    for i, c in enumerate(f):
        _need(c >= comb(d + 1, i + 1),
              f"f_{i} = {c} is below the simplex minimum {comb(d + 1, i + 1)}")
    report = families.properties(f)
    doc = {
        "d": d,
        "f": [str(c) for c in f],
        "euler": flagalg.euler_check(f),
        "properties": report.as_dict(),
    }
    if args.format == "csv":
        print("property,holds,witness")
        for letter, cell in report.as_dict().items():
            witness = "" if cell["witness"] is None else cell["witness"]
            print(f"{letter},{str(cell['holds']).lower()},{witness}")
    else:
        _emit_json(doc, args)
    return 0


def cmd_flags(args) -> int:
    L = _build_family(args.family, args.d, args.n)
    v = L.flag_vector()
    entries = {flagalg.subset_key(S): rat_to_str(val)
               for S, val in sorted(v.entries.items(),
                                    key=lambda kv: (len(kv[0]), kv[0]))}
    if args.format == "csv":
        print("index_set,value")
        for key, val in entries.items():
            print(f"{key},{val}")
    else:
        _emit_json({"d": L.d, "entries": entries}, args)
    return 0


def cmd_cdindex(args) -> int:
    L = _build_family(args.family, args.d, args.n)
    word = args.coeff and _normalize_word(args.coeff, L.d)
    v = L.flag_vector()
    if word:
        value = rat_to_str(cdx.cd_coefficient(v, word))
        if args.format == "csv":
            print("word,value")
            print(f"{args.coeff},{value}")
        else:
            _emit_json({"d": L.d, "word": args.coeff, "value": value}, args)
        return 0
    poly = cdx.cd_index(v)
    coeffs = {word: rat_to_str(c) for word, c in poly.ordered_terms()}
    if args.format == "csv":
        print("word,coefficient")
        for word, c in coeffs.items():
            print(f"{word},{c}")
    else:
        _emit_json({"d": L.d, "cd": poly.canonical_str(), "coeffs": coeffs}, args)
    return 0


def _normalize_word(text: str, d: int) -> str:
    """The cd-word ``text`` spelled out, once its degree, read from the
    exponents, is known to be d."""
    runs = cdx._pretty_runs(text)
    degree = sum(count if letter == "c" else 2 * count for letter, count in runs)
    _need(degree > 0, f"empty cd-word {text!r}")
    if degree != d:
        name = repr(text) if len(text) <= 20 else f"{text[:20]!r}..."
        try:
            message = f"{name} has degree {degree}, need {d}"
        except ValueError:  # a degree of more digits than str() may write
            message = f"{name} has a degree far above the {d} needed"
        raise DegreeMismatch(message)
    return "".join(letter * count for letter, count in runs)


def _parse_form(text: str) -> forms.FlagForm:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return forms.FlagForm.from_json(fh.read())
    if text.startswith("{"):
        return forms.FlagForm.from_json(text)
    if text.startswith(("g0@", "g1@")):
        which, d_text = text.split("@", 1)
        g0, g1 = forms.g_forms(int(d_text))
        if which == "g0":
            return g0
        _need(g1 is not None, "g1 needs dimension >= 1")
        return g1
    raise InvalidParams(
        f"cannot parse form {text!r}; use g0@D, g1@D, inline JSON or @file")


def cmd_convolve(args) -> int:
    result = forms.convolve(_parse_form(args.left), _parse_form(args.right))
    doc = json.loads(result.to_json())
    _emit_json(doc, args)
    return 0


def cmd_candidates(args) -> int:
    if args.dim == 6:
        sparse = families.candidate_6d(args.ell)
    else:
        _need(args.ell in (None, 0), "the 7-dimensional candidate has no parameter")
        sparse = families.candidate_7d()
    v = flagalg.complete_from_sparse(sparse, args.dim)
    rep = forms.check_candidate(v)
    doc = {
        "d": args.dim,
        "ell": args.ell if args.dim == 6 else None,
        "sparse": {flagalg.subset_key(S): str(val)
                   for S, val in sorted(sparse.items(), key=lambda kv: (len(kv[0]), kv[0]))},
        "f": [str(c) for c in rep.f],
        "battery": {name: rat_to_str(val) for name, val in rep.battery_values.items()},
        "battery_ok": rep.battery_ok,
        "euler_ok": rep.euler_ok,
        "gds_ok": rep.gds_ok,
        "properties": rep.properties.as_dict(),
    }
    _emit_json(doc, args)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
    except ValueError:
        raise InvalidParams(f"range must look like 8..20, got {text!r}") from None
    _need(hi - lo < MAX_SCAN_VALUES, f"range {text} holds {hi - lo + 1} values,"
          f" more than the {MAX_SCAN_VALUES} a scan may take")
    return lo, hi


def cmd_scan(args) -> int:
    lo, hi = _parse_range(args.n)
    if args.kind == "logconv7":
        triples = families.logconv_scan(lo, hi)
        rows = [
            {"n": t.n,
             "r1": rat_to_str(t.r1), "r2": rat_to_str(t.r2), "r3": rat_to_str(t.r3),
             "r1_approx": approx_str(t.r1), "r2_approx": approx_str(t.r2),
             "r3_approx": approx_str(t.r3)}
            for t in triples
        ]
        header = ["n", "r1", "r2", "r3", "r1_approx", "r2_approx", "r3_approx"]
    else:
        _need(lo >= 6 and lo <= hi, f"cyclic 5-polytopes need 6 <= n_min <= n_max, got {args.n}")
        rows = []
        for n in range(lo, hi + 1):
            f = families.cyclic_f(5, n)
            gap = f[1] - Fraction(f[0] + f[2], 2)
            rows.append({
                "n": n,
                **{f"f{i}": str(f[i]) for i in range(5)},
                "convexity_gap": rat_to_str(gap),
                "convexity_gap_approx": approx_str(gap),
            })
        header = ["n", "f0", "f1", "f2", "f3", "f4",
                  "convexity_gap", "convexity_gap_approx"]
    if args.format == "json":
        _emit_json({"kind": args.kind, "rows": rows}, args)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(row[h]) for h in header))
    return 0


def cmd_verify_paper(args) -> int:
    report = verify.run_verification(seed=args.seed)
    if args.format == "json":
        _emit_json(report.to_dict(), args)
    else:
        for line in report.to_lines():
            print(line)
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagvec",
        description="Exact flag-vector combinatorics of convex polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format="json"):
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--no-meta", action="store_true",
                       help="omit tool metadata from JSON output")

    p = sub.add_parser("generate", help="f-vector of a family member")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("-d", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("check", help="property verdicts for an f-vector")
    p.add_argument("vector", help="comma-separated counts, or @file")
    p.add_argument("-d", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("flags", help="full flag vector of a family member")
    p.add_argument("family", choices=FAMILIES[:-1])
    p.add_argument("-d", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_flags)

    p = sub.add_parser("cdindex", help="cd-index of a family member")
    p.add_argument("family", choices=FAMILIES[:-1])
    p.add_argument("-d", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--coeff", default=None,
                   help="extract one coefficient, e.g. c2dc2")
    common(p)
    p.set_defaults(fn=cmd_cdindex)

    p = sub.add_parser("convolve", help="convolution of two flag forms")
    p.add_argument("left", help="g0@D, g1@D, inline JSON or @file")
    p.add_argument("right")
    common(p)
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("candidates", help="candidate flag vectors and their screening")
    p.add_argument("dim", type=int, choices=(6, 7))
    p.add_argument("--ell", type=int, default=0,
                   help="parameter of the 6-dimensional family")
    common(p)
    p.set_defaults(fn=cmd_candidates)

    p = sub.add_parser("scan", help="per-n data streams")
    p.add_argument("kind", choices=("logconv7", "convexity5"))
    p.add_argument("--n", required=True, help="range, e.g. 8..20")
    common(p, default_format="csv")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify-paper",
                       help="run the full verification suite of identities"
                            " and reference values")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--no-meta", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NotEulerian as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FlagVecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
