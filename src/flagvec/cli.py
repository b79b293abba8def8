"""Command-line front end.

Subcommands: generate, check, flags, cdindex, convolve, candidates, scan,
verify-paper.  All exact numbers are printed as decimal-digit strings or
"p/q"; decimal columns are explicitly marked approximate.  Output is
deterministic for fixed arguments, so it can be golden-tested.  Bad input
exits 2 with one ``error:`` line.  Every integer read from the command line
(-d, -n, --ell, --seed, the dimension of candidates, the bounds of scan --n, a
face count inline or in a file, and the D of g0@D and g1@D) is a count, and
every coefficient an exact number, as ``rational`` reads them.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from . import cdindex as cdx
from . import families, flagalg, forms, lattice, verify
from .errors import FlagVecError, InvalidParams, NotEulerian
from .rational import (approx_str, count_from_str, is_json_int, load_json,
                       rat_to_str, shown)

# Each family's builder and the options it takes, in argument order.  Every
# builder gives a face lattice except p7n's, the connected sum of a cyclic
# 7-polytope and its dual, which gives an f-vector.  A builder reads its
# module when called, so that importing the CLI runs none of them.
FAMILIES = {
    "simplex": (lambda d: lattice.build_simplex(d), ("d",)),
    "cube": (lambda d: lattice.build_cube(d), ("d",)),
    "crosspolytope": (lambda d: lattice.build_crosspolytope(d), ("d",)),
    "cyclic": (lambda d, n: lattice.build_cyclic(d, n), ("d", "n")),
    "polygon": (lambda n: lattice.build_polygon(n), ("n",)),
    "p7n": (lambda n: families.cyclic_sum_f(7, n), ("n",)),
}
LATTICE_FAMILIES = [name for name in FAMILIES if name != "p7n"]
MAX_SCAN_VALUES = 10**5


def _emit_json(doc: dict, args):
    meta = {} if args.no_meta else {"meta": {"tool": "flagvec", "version": __version__}}
    print(json.dumps(doc | meta, indent=2))


def _emit(args, doc: dict, header, rows):
    """doc as JSON, or the header and rows as csv, as --format asks."""
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(map(str, row)))
    else:
        _emit_json(doc, args)


def _build_family(args):
    """What the family's builder gives for the -d and -n on the command line."""
    build, options = FAMILIES[args.family]
    _need(all(getattr(args, opt) is not None for opt in options),
          f"{args.family} needs " + " and ".join(f"-{opt}" for opt in options))
    for opt in ("d", "n"):
        _need(getattr(args, opt) is None or opt in options,
              f"{args.family} takes no -{opt}")
    return build(*(count_from_str(getattr(args, opt), f"-{opt}") for opt in options))


def _need(cond: bool, message: str):
    if not cond:
        raise InvalidParams(message)


# ----------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    built = _build_family(args)
    f = [str(c) for c in (built if args.family == "p7n" else built.f_vector())]
    _emit(args, {"d": built.d, "f": f}, [f"f{i}" for i in range(built.d)], [f])
    return 0


def _parse_vector(text: str) -> list[int]:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read().strip()
        if text.startswith("{"):
            f = load_json(text).get("f")
            _need(isinstance(f, list)
                  and all(is_json_int(x) or isinstance(x, str) for x in f),
                  '"f" must be a list of integers or decimal-digit strings,'
                  f" got {json.dumps(f)}")
            return [x if is_json_int(x) else count_from_str(x, "face count") for x in f]
    return [count_from_str(p, "face count")
            for p in text.replace(" ", "").split(",") if p]


def cmd_check(args) -> int:
    from math import comb

    f = _parse_vector(args.vector)
    d = count_from_str(args.d, "-d") if args.d is not None else len(f)
    _need(d == len(f), f"vector has {len(f)} components, but d={d}")
    _need(d >= 1, "need at least one face count")
    _need(all(c > 0 for c in f), "face counts must be positive")
    for i, c in enumerate(f):
        _need(c >= comb(d + 1, i + 1),
              f"f_{i} = {c} is below the simplex minimum {comb(d + 1, i + 1)}")
    properties = families.properties(f).as_dict()
    doc = {
        "d": d,
        "f": [str(c) for c in f],
        "euler": flagalg.euler_check(f),
        "properties": properties,
    }
    _emit(args, doc, ["property", "holds", "witness"],
          [(letter, str(cell["holds"]).lower(),
            "" if cell["witness"] is None else cell["witness"])
           for letter, cell in properties.items()])
    return 0


def cmd_flags(args) -> int:
    doc = json.loads(_build_family(args).flag_vector().to_json())
    _emit(args, doc, ["index_set", "value"], doc["entries"].items())
    return 0


def cmd_cdindex(args) -> int:
    L = _build_family(args)
    word = None if args.coeff is None else cdx.read_cd_word(args.coeff, L.d)
    v = L.flag_vector()
    if word is not None:
        value = rat_to_str(cdx.cd_coefficient(v, word))
        _emit(args, {"d": L.d, "word": args.coeff, "value": value},
              ["word", "value"], [(args.coeff, value)])
        return 0
    poly = cdx.cd_index(v)
    coeffs = {word: rat_to_str(c) for word, c in poly.ordered_terms()}
    _emit(args, {"d": L.d, "cd": poly.canonical_str(), "coeffs": coeffs},
          ["word", "coefficient"], coeffs.items())
    return 0


def _parse_form(text: str) -> "forms.FlagForm":
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return forms.FlagForm.from_json(fh.read())
    if text.startswith("{"):
        return forms.FlagForm.from_json(text)
    if text.startswith(("g0@", "g1@")):
        which, d_text = text.split("@", 1)
        g0, g1 = forms.g_forms(count_from_str(d_text, f"{which}@D"))
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
    dim = count_from_str(args.dim, "dimension")
    _need(dim in (6, 7), f"candidates have dimension 6 or 7, got {shown(args.dim)}")
    ell = count_from_str(args.ell, "--ell")
    if dim == 6:
        sparse = families.candidate_6d(ell)
    else:
        _need(ell == 0, "the 7-dimensional candidate has no parameter")
        sparse = families.candidate_7d()
    v = flagalg.complete_from_sparse(sparse, dim)
    rep = forms.check_candidate(v)
    doc = {
        "d": dim,
        "ell": ell if dim == 6 else None,
        "sparse": json.loads(flagalg.write_flag_json(dim, "sparse", sparse))["sparse"],
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
    _need(".." in text, f"range must look like 8..20, got {text!r}")
    lo, hi = (count_from_str(bound, "--n bound") for bound in text.split("..", 1))
    _need(hi - lo < MAX_SCAN_VALUES, f"range {text} holds {hi - lo + 1} values,"
          f" more than the {MAX_SCAN_VALUES} a scan may take")
    return lo, hi


def cmd_scan(args) -> int:
    lo, hi = _parse_range(args.n)
    if args.kind == "logconv7":
        header = ["n", "r1", "r2", "r3", "r1_approx", "r2_approx", "r3_approx"]
        rows = [[n, *map(rat_to_str, ratios), *map(approx_str, ratios)]
                for n, ratios in families.logconv_scan(7, lo, hi)]
    else:
        _need(lo >= 6 and lo <= hi, f"cyclic 5-polytopes need 6 <= n_min <= n_max, got {args.n}")
        header = ["n", "f0", "f1", "f2", "f3", "f4",
                  "convexity_gap", "convexity_gap_approx"]
        rows = []
        for n in range(lo, hi + 1):
            f = families.cyclic_f(5, n)
            gap = f[1] - Fraction(f[0] + f[2], 2)
            rows.append([n, *map(str, f), rat_to_str(gap), approx_str(gap)])
    _emit(args, {"kind": args.kind, "rows": [dict(zip(header, row)) for row in rows]},
          header, rows)
    return 0


def cmd_verify_paper(args) -> int:
    report = verify.run_verification(seed=count_from_str(args.seed, "--seed"))
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

    def common(p, default="json", formats=("json", "csv")):
        if formats:
            p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--no-meta", action="store_true",
                       help="omit tool metadata from JSON output")

    def family_parser(name, help, choices):
        p = sub.add_parser(name, help=help)
        p.add_argument("family", choices=choices)
        p.add_argument("-d")
        p.add_argument("-n")
        return p

    p = family_parser("generate", "f-vector of a family member", list(FAMILIES))
    common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("check", help="property verdicts for an f-vector")
    p.add_argument("vector", help="comma-separated counts, or @file")
    p.add_argument("-d")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = family_parser("flags", "full flag vector of a family member", LATTICE_FAMILIES)
    common(p)
    p.set_defaults(fn=cmd_flags)

    p = family_parser("cdindex", "cd-index of a family member", LATTICE_FAMILIES)
    p.add_argument("--coeff", default=None,
                   help="extract one coefficient, e.g. c2dc2")
    common(p)
    p.set_defaults(fn=cmd_cdindex)

    p = sub.add_parser("convolve", help="convolution of two flag forms")
    p.add_argument("left", help="g0@D, g1@D, inline JSON or @file")
    p.add_argument("right")
    common(p, formats=())
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("candidates", help="candidate flag vectors and their screening")
    p.add_argument("dim", help="6 or 7")
    p.add_argument("--ell", default="0",
                   help="parameter of the 6-dimensional family")
    common(p, formats=())
    p.set_defaults(fn=cmd_candidates)

    p = sub.add_parser("scan", help="per-n data streams")
    p.add_argument("kind", choices=("logconv7", "convexity5"))
    p.add_argument("--n", required=True, help="range, e.g. 8..20")
    common(p, default="csv")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify-paper",
                       help="run the full verification suite of identities"
                            " and reference values")
    common(p, "text", ("text", "json"))
    p.add_argument("--seed", default="0")
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
    except (FlagVecError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
