"""Command-line surface.

Every command is a thin adapter around a library call: input comes from a
JSON file (or inline JSON via --input-json), output is JSON (or CSV for the
tabular commands).  Numbers in the input are JSON integers or strings
("7", "-3/2", "0.1"), read exactly by `forms.parse_number`; a JSON float,
bool or null is a parse failure.  Exit status: 0 success, 2 domain error
with a machine-readable error object, 1 I/O or parse failure.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys

import mpmath as mp

from .covariant import reduction_covariant
from .equidist import (MEASURE_CAVEAT, component_histogram, density_trend,
                       sample_pencils, small_vector_frequency)
from .errors import DomainError, NotFound, RangeError
from .forms import DEFAULT_PRECISION, BinaryForm, parse_number
from .heights import FamilyParams, _vector_length_bound, prop_bound_check
from .orbits import (DivisorSpec, OrbitDatum, datum_from_divisor, integralize,
                     norm_of_one_formula, pencil_from_datum)
from .pencil import Pencil, invariant_form
from .reduce import form_norm, lll_reduce


def _read_input(args, parse):
    """parse(input JSON).  A wrong shape (TypeError) or a zero denominator
    (ZeroDivisionError) in the input is an input error like any other."""
    if getattr(args, "input_json", None):
        data = json.loads(args.input_json)
    elif getattr(args, "input", None):
        with open(args.input) as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    try:
        return parse(data)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError("malformed input: %s" % exc) from exc


def _emit(args, payload, csv_rows=None, csv_header=None, csv_meta=None):
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        buf = io.StringIO()
        for key, value in (csv_meta or {}).items():
            buf.write("# %s=%s\n" % (key, value))
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_invariant(args):
    p = _read_input(args, Pencil.from_json_dict)
    f = invariant_form(p)
    _emit(args, {"form": f.to_json_dict()})
    return 0


def cmd_covariant(args):
    p = _read_input(args, Pencil.from_json_dict)
    H = reduction_covariant(p, args.precision)
    _emit(args, H.to_json_dict())
    return 0


def cmd_reduce(args):
    if not 0.25 < args.delta_lll < 1:
        raise RangeError("--delta-lll must lie in (0.25, 1)")
    p = _read_input(args, Pencil.from_json_dict)
    res = lll_reduce(p, delta=args.delta_lll, precision=args.precision,
                     sl_normalize=args.sl_normalize)
    _emit(args, {"g": [list(r) for r in res.g.entries],
                 "det_g": res.det_g,
                 "reduced": res.reduced.to_json_dict(),
                 "gram_reduced": res.gram_reduced.to_json_dict()})
    return 0


def cmd_orbit(args):
    d = _read_input(args, OrbitDatum.from_json_dict)
    p, one_bar = pencil_from_datum(d)
    _emit(args, {"pencil": p.to_json_dict(),
                 "one_bar": [str(x) for x in one_bar]})
    return 0


def cmd_divisor_orbit(args):
    ds = _read_input(args, DivisorSpec.from_json_dict)
    d = datum_from_divisor(ds)
    p, one_bar = pencil_from_datum(d)
    out = {"datum": d.to_json_dict(),
           "pencil": p.to_json_dict(),
           "one_bar": [str(x) for x in one_bar]}
    try:
        res = integralize(p)
        out["integralized"] = True
        out["integral_pencil"] = res.pencil.to_json_dict()
        out["integral_one_bar"] = [str(x) for x in res.transport(one_bar)]
    except NotFound:
        out["integralized"] = False
    _emit(args, out)
    return 0


def cmd_norm_check(args):
    ds = _read_input(args, DivisorSpec.from_json_dict)
    d = datum_from_divisor(ds)
    p, one_bar = pencil_from_datum(d)
    H = reduction_covariant(p, args.precision)
    with mp.workprec(args.precision + 32):
        quad = form_norm(H, one_bar, args.precision)
        formula = norm_of_one_formula(ds, args.precision)
        agree = bool(abs(quad - formula) <=
                     10 * (H.error_bound + mp.mpf(2) ** (-args.precision // 2)))
        _emit(args, {"formula": mp.nstr(formula, 30),
                     "quadratic": mp.nstr(quad, 30),
                     "agree": agree})
    return 0


def cmd_height_check(args):
    f, U, w = _read_input(args, lambda d: (
        BinaryForm.from_json_dict(d["f"]), BinaryForm.from_json_dict(d["U"]),
        parse_number(d["w"]) if "w" in d else None))
    fp = FamilyParams(args.cutoff_x, args.delta)
    prop = prop_bound_check(f, U, fp, args.precision)
    out = {"prop_bound": prop.to_json_dict()}
    if w is not None:
        # prop_bound_check has already checked that f is in the family
        vec = _vector_length_bound(DivisorSpec(f, U, w), fp, args.precision)
        out["vector_length_bound"] = vec.to_json_dict()
    _emit(args, out)
    return 0


def cmd_sample(args):
    if args.n < 1 or args.n % 2:
        raise RangeError("--n must be a positive even integer")
    if args.box_bound < 0 or args.count < 1:
        raise RangeError("--box-bound must be at least 0, --count at least 1")
    eps_list = [float(e) for e in args.eps_list.split(",")] if args.eps_list \
        else [0.8, 0.4, 0.2, 0.1, 0.05]
    if not all(0 < e < math.inf for e in eps_list):
        raise RangeError("--eps-list values must be positive and finite")
    eps_list = sorted(eps_list, reverse=True)
    batch = sample_pencils(args.n, args.box_bound, args.count, args.seed,
                           args.precision)
    freq = small_vector_frequency(batch, eps_list)
    hist = component_histogram(batch)
    payload = {"metadata": {"n": args.n, "box_bound": args.box_bound,
                            "count": args.count, "seed": args.seed,
                            "measure": MEASURE_CAVEAT},
               "small_vector_frequency": [
                   {"eps": e, "frequency": fr, "count": c}
                   for e, fr, c in freq],
               "component_histogram": {str(k): v for k, v in hist.items()},
               "degenerate": args.count - len(batch.nondegenerate_items())}
    _emit(args, payload, csv_rows=[(e, fr, c) for e, fr, c in freq],
          csv_header=("eps", "frequency", "count"),
          csv_meta={"n": args.n, "box_bound": args.box_bound,
                    "seed": args.seed, "measure": MEASURE_CAVEAT})
    return 0


def cmd_density(args):
    xs = [float(x) for x in args.cutoff_x_list.split(",")]
    rows = density_trend(args.n, args.delta, xs, args.count, args.seed)
    payload = {"metadata": {"n": args.n, "delta": args.delta,
                            "seed": args.seed, "samples_per_X": args.count,
                            "measure": MEASURE_CAVEAT},
               "rows": [{"X": x, "fraction": fr, "count": c}
                        for x, fr, c in rows]}
    _emit(args, payload, csv_rows=rows, csv_header=("X", "fraction", "count"),
          csv_meta={"n": args.n, "delta": args.delta, "seed": args.seed,
                    "measure": MEASURE_CAVEAT})
    return 0


@functools.cache
def build_parser():
    """The argparse tree, built once per process; main never mutates it."""
    ap = argparse.ArgumentParser(prog="pencilred")
    ap.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                    help="working precision in bits")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", help="input JSON file (default stdin)")
        p.add_argument("--input-json", help="inline input JSON")
        p.add_argument("--output", help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("invariant", help="invariant binary form of a pencil")
    common(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("covariant", help="reduction covariant Gram matrix")
    common(p)
    p.set_defaults(func=cmd_covariant)

    p = sub.add_parser("reduce", help="LLL-reduce a pencil")
    common(p)
    p.add_argument("--delta-lll", type=float, default=0.99)
    p.add_argument("--sl-normalize", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("orbit", help="pencil from an orbit datum (alpha, z)")
    common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("divisor-orbit",
                       help="datum and pencil from a divisor spec")
    common(p)
    p.set_defaults(func=cmd_divisor_orbit)

    p = sub.add_parser("norm-check",
                       help="distinguished-vector norm: formula vs quadratic")
    common(p)
    p.set_defaults(func=cmd_norm_check)

    p = sub.add_parser("height-check", help="height inequality report")
    common(p)
    p.add_argument("--cutoff-X", dest="cutoff_x", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.3)
    p.set_defaults(func=cmd_height_check)

    p = sub.add_parser("sample", help="sampled covariant statistics")
    common(p)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--box-bound", type=int, default=3)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps-list", help="comma-separated eps values")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("density", help="family-membership fraction per cutoff")
    common(p)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--delta", type=float, default=0.3)
    p.add_argument("--cutoff-X-list", dest="cutoff_x_list", required=True)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_density)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.precision < 64:     # certified bounds say little below
            raise RangeError("--precision must be at least 64 bits")
        return args.func(args)
    except DomainError as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}},
                  sys.stdout)
        sys.stdout.write("\n")
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
