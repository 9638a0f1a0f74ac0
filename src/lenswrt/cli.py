"""Command-line interface.

Every subcommand is deterministic and machine-readable: --format json
emits documents with fixed key order, --format csv uses 17 significant
digits so doubles round-trip.  Exit codes: 0 success, 2 invalid input,
3 computation error (rank deficiency, unsupported case, ...).  Each
command appends its output lines to a list, and main writes that list
once, to stdout or to --output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import build_f_matrix, kernel, rank, recover_skein
from .codec import coeff_to_json, field, load_json, poly_from_json, poly_to_json
from .cyclotomic import embed_complex
from .errors import ComputationError
from .gauss import GaussSumSpec, gauss_sum
from .laurent import LaurentPoly
from .numtheory import classify_order, dedekind_sum, rademacher_phi
from .skein import SkeinElement
from .wrt import LensSpace, eval_z_combination, f_poly, jeffrey_oracle


def _fmt17(x) -> str:
    return f"{float(x):.16e}"  # 17 significant digits: doubles round-trip


def _emit(out: list, fmt: str, document: dict, text_lines, csv_rows=None, csv_header=None):
    if fmt == "json":
        out.append(json.dumps(document))
    elif fmt == "csv":
        if csv_rows is None:
            csv_rows = [[document.get(k) for k in document]]
            csv_header = list(document)
        out.append(",".join(csv_header))
        out.extend(",".join(str(v) for v in row) for row in csv_rows)
    else:
        out.extend(text_lines)


# --- subcommands --------------------------------------------------------------------


def cmd_gauss(args, out: list):
    import mpmath
    spec = GaussSumSpec(args.p, args.a, args.b)
    value = gauss_sum(spec)
    num = embed_complex(value, args.precision)
    doc = {
        "p": spec.p,
        "a": spec.a,
        "b": spec.b,
        "exact": coeff_to_json(value),
        "re": float(mpmath.re(num)),
        "im": float(mpmath.im(num)),
    }
    _emit(
        out,
        args.format,
        doc,
        [f"G_{spec.p}({spec.a},{spec.b}) = {value}", f"  = {mpmath.nstr(num, 15)}"],
        csv_rows=[[spec.p, spec.a, spec.b, _fmt17(mpmath.re(num)), _fmt17(mpmath.im(num))]],
        csv_header=["p", "a", "b", "re", "im"],
    )


def cmd_dedekind(args, out: list):
    value = dedekind_sum(args.q, args.p)
    doc = {"q": args.q, "p": args.p, "numerator": value.numerator, "denominator": value.denominator}
    _emit(out, args.format, doc, [f"s({args.q},{args.p}) = {value}"])


def cmd_phi(args, out: list):
    value = rademacher_phi(args.p, args.q)
    doc = {"p": args.p, "q": args.q, "phi": value}
    _emit(out, args.format, doc, [f"phi({args.p},{args.q}) = {value}"])


def cmd_fpoly(args, out: list):
    space = LensSpace(args.p, args.q)
    fp = f_poly(space, args.c, args.k)
    doc = {
        "p": args.p,
        "q": args.q,
        "c": args.c,
        "k": args.k,
        "prefactor_sign": fp.prefactor_sign,
        "scale": "i/sqrt(2p)",
        "body": poly_to_json(fp.body),
    }
    _emit(
        out,
        args.format,
        doc,
        [
            f"f(p={args.p}, q={args.q}, c={args.c}, k={args.k}):",
            f"  sign {fp.prefactor_sign:+d}, scale i/sqrt({2 * args.p})",
            f"  body = {fp.body!r}",
        ],
    )


def _load_skein_file(path: str, p: int) -> dict:
    """The class in a skein file for order p as z-components {color: v_c(z)}.

    An ordinary element's coefficients C_c(A) become C_c(-z^p) here, once.
    """
    data = load_json(path)
    file_p = field(data, "p", int)
    if file_p != p:
        raise ValueError(f"skein file has order {file_p}, expected {p}")
    if "components" in data:
        comps = [poly_from_json("z", entry, p) for entry in field(data, "components", list)]
    else:
        comps = [coeff.subst_signed_power(p, "z") for coeff in SkeinElement.from_json(data).coeffs]
    return dict(enumerate(comps))


def cmd_wrt(args, out: list):
    import mpmath
    space = LensSpace(args.p, args.q)
    prec = args.precision
    if (args.color is None) == (args.skein_file is None):
        raise ValueError("specify exactly one of --color or --skein-file")
    if args.rmin > args.rmax:
        raise ValueError(f"--rmin {args.rmin} exceeds --rmax {args.rmax}")
    if args.color is not None:
        components = {args.color: LaurentPoly.one("z")}
    else:
        components = _load_skein_file(args.skein_file, args.p)

    def oracle_at(r):
        """The same weights v_c(zeta) on the direct-sum oracle's meridian values."""
        with mpmath.workprec(prec):
            return mpmath.fsum(
                (comp.eval_at_unit_root(4 * space.p * r, prec) * jeffrey_oracle(space, c, r, prec)
                 for c, comp in components.items() if comp),
                absolute=False,
            )

    rows = []
    with mpmath.workprec(args.precision):
        for r in range(args.rmin, args.rmax + 1):
            v = eval_z_combination(space, components, r, prec)
            o = oracle_at(r)
            rows.append((r, v, o, abs(v - o)))
    doc = {
        "p": args.p,
        "q": args.q,
        "rows": [
            {"r": r, "re": float(mpmath.re(v)), "im": float(mpmath.im(v)),
             "oracle_re": float(mpmath.re(o)), "oracle_im": float(mpmath.im(o)),
             "abs_diff": float(d)}
            for r, v, o, d in rows
        ],
    }
    _emit(
        out,
        args.format,
        doc,
        [f"r={r}: w_r = {mpmath.nstr(v, 12)}  oracle {mpmath.nstr(o, 12)}  |diff| {mpmath.nstr(d, 3)}"
         for r, v, o, d in rows],
        csv_rows=[[r, _fmt17(mpmath.re(v)), _fmt17(mpmath.im(v)),
                   _fmt17(mpmath.re(o)), _fmt17(mpmath.im(o)), _fmt17(d)]
                  for r, v, o, d in rows],
        csv_header=["r", "re", "im", "oracle_re", "oracle_im", "abs_diff"],
    )


def cmd_rank(args, out: list):
    space = LensSpace(args.p, args.q)
    value = rank(build_f_matrix(space))
    doc = {"p": args.p, "q": args.q, "rank": value, "columns": args.p // 2 + 1,
           "full": value == args.p // 2 + 1}
    _emit(out, args.format, doc, [f"rank of the f-matrix of L({args.p},{args.q}) = {value}"],
          csv_rows=[[args.p, args.q, value]], csv_header=["p", "q", "rank"])


def cmd_kernel(args, out: list):
    space = LensSpace(args.p, args.q)
    basis = kernel(space)
    doc = {
        "p": args.p,
        "q": args.q,
        "dimension": len(basis),
        "basis": [{"components": [poly_to_json(c) for c in vec]} for vec in basis],
    }
    lines = [f"kernel dimension {len(basis)} for L({args.p},{args.q})"]
    for i, vec in enumerate(basis):
        lines.append(f"vector {i}:")
        for c, comp in enumerate(vec):
            lines.append(f"  mu_{c}: {comp!r}")
    _emit(out, args.format, doc, lines)


def cmd_classify(args, out: list):
    result = classify_order(args.p).value
    doc = {"p": args.p, "classification": result}
    _emit(out, args.format, doc, [f"{result}"])


def cmd_recover(args, out: list):
    data = load_json(args.samples_file)
    p, q = field(data, "p", int), field(data, "q", int)
    if (p, q) != (args.p, args.q):
        raise ValueError(f"samples file is for L({p},{q}), expected L({args.p},{args.q})")
    space = LensSpace(p, q)
    fpolys = [poly_from_json("z", entry, p) for entry in field(data, "fpolys", list)]
    result = recover_skein(space, fpolys)
    comps = []
    for comp in result.z_components:
        if comp.is_polynomial():
            comps.append(poly_to_json(comp.as_polynomial()))
        else:
            comps.append({"num": poly_to_json(comp.num), "den": poly_to_json(comp.den)})
    doc = {
        "p": p,
        "q": q,
        "z_components": comps,
        "a_form": result.a_form.to_json() if result.a_form is not None else None,
    }
    lines = [f"recovered skein class in L({p},{q}):"]
    for c, comp in enumerate(result.z_components):
        lines.append(f"  C_{c}(-z^{p}) = {comp!r}")
    if result.a_form is not None:
        lines.append(f"  A-form: {result.a_form!r}")
    _emit(out, args.format, doc, lines)


def cmd_selftest(args, out: list):
    # here, not at the top: no other command pays for loading the acceptance suite
    from .selftest import CRITERIA, criterion_records

    only = None
    if args.only is not None:
        numbers = {number for number, _, _ in CRITERIA}
        try:
            only = {int(tok) for tok in args.only.split(",")}
        except ValueError:
            only = set()
        if not only or not only <= numbers:
            raise ValueError(f"--only takes criterion numbers {min(numbers)}..{max(numbers)}, got {args.only!r}")
    records = list(criterion_records(only))
    if args.format == "json":
        out.append(json.dumps({"criteria": records}))
    elif args.format == "csv":  # details contain commas, so cells are quoted as the csv module does
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        out.append(buf.getvalue().rstrip("\n"))
    else:
        for record in records:
            status = "PASS" if record["passed"] else "FAIL"
            out.append(f"[{status}] {record['number']:2d} {record['title']}: {record['detail']} "
                       f"({record['seconds']:.2f}s)")
    return 0 if all(record["passed"] for record in records) else 1


# name, handler, help, integer positionals; wrt, recover and selftest add more in build_parser
COMMANDS = (
    ("gauss", cmd_gauss, "generalized Gauss sum", ("p", "a", "b")),
    ("dedekind", cmd_dedekind, "Dedekind sum s(q, p)", ("q", "p")),
    ("phi", cmd_phi, "framing-correction integer of L(p,q)", ("p", "q")),
    ("fpoly", cmd_fpoly, "the invariant polynomial for one (c, k)", ("p", "q", "c", "k")),
    ("wrt", cmd_wrt, "invariant values over a range of levels", ("p", "q")),
    ("rank", cmd_rank, "rank of the f-matrix", ("p", "q")),
    ("kernel", cmd_kernel, "kernel basis of the f-matrix", ("p", "q")),
    ("classify", cmd_classify, "whether skein classes are determined by invariants", ("p",)),
    ("recover", cmd_recover, "solve for skein coefficients from polynomials", ("p", "q")),
    ("selftest", cmd_selftest, "run the acceptance checks", ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenswrt",
        description="Exact quantum invariants of links in lens spaces.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--precision", type=int, default=53, help="working precision in bits")
    parser.add_argument("--output", default=None, help="write output to a file")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, func, help_text, positionals in COMMANDS:
        s = subparsers[name] = sub.add_parser(name, parents=[common], help=help_text)
        for positional in positionals:
            s.add_argument(positional, type=int)
        s.set_defaults(func=func)
    s = subparsers["wrt"]
    s.add_argument("--color", type=int, default=None, help="meridian color c")
    s.add_argument("--skein-file", default=None, help="JSON skein element")
    s.add_argument("--rmin", type=int, default=2)
    s.add_argument("--rmax", type=int, default=40)
    subparsers["recover"].add_argument("samples_file")
    subparsers["selftest"].add_argument("--only", default=None, help="comma-separated criterion numbers")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < 53:
        parser.error("--precision must be at least 53 bits")
    lines: list[str] = []
    try:
        code = args.func(args, lines)
        text = "\n".join(lines) + ("\n" if lines else "")
        if not args.output:
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write {args.output}: {exc.strerror}") from None
    except ValueError as exc:
        _report_error(args.format, "ValueError", str(exc))
        return 2
    except ComputationError as exc:
        _report_error(args.format, type(exc).__name__, str(exc))
        return 3
    return code or 0


def _report_error(fmt: str, name: str, message: str):
    if fmt == "json":
        sys.stderr.write(json.dumps({"error": {"name": name, "message": message}}) + "\n")
    else:
        sys.stderr.write(f"error [{name}]: {message}\n")


if __name__ == "__main__":
    sys.exit(main())
