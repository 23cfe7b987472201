"""Command-line front door: `hc diagrams|series|integrate|verify`.

All machine output is JSON on stdout (deterministic byte-for-byte for a
fixed config and seed); CSV is derived output for plotting the leading
asymptotic convergence of the integrals.  Exit codes: 0 pass, 1 failure,
2 usage/validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction as Q

from . import closedforms as cf
from . import diagrams as dg
from . import series as se

MAX_ENUM = 8
# The suites of `claims.SUITES`, named here so that the parser does not load
# `claims` and, through `cycles`, numpy: only `hc integrate` and `hc verify` do.
VERIFY_SUITES = ("combinatorics", "series", "integrals", "identities")


def _parse_rational(text: str, label: str) -> Q:
    text = text.strip()
    try:
        if "." in text or "e" in text.lower():
            value = Q(text)
            print(f"warning: {label} given as a float literal; using exact {value}", file=sys.stderr)
            return value
        return Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"usage error: cannot parse {label} {text!r}: {exc}")


def _parse_lambda(text: str, n: int) -> tuple[Q, ...]:
    if n < 1:
        raise SystemExit(f"usage error: rank n = {n} must be >= 1")
    parts = [p for p in text.split(",") if p.strip()]
    lam = tuple(_parse_rational(p, "lambda") for p in parts)
    if len(lam) != n + 1:
        raise SystemExit(f"usage error: lambda needs {n + 1} components for rank {n}")
    if sum(lam) != 0:
        raise SystemExit("usage error: lambda components must sum to 0")
    return lam


def _parse_w(text: str, r: int) -> list[dg.Permutation]:
    text = text.strip().lower()
    if text == "all":
        return list(dg.all_permutations(r))
    if text in ("id", "identity"):
        return [dg.Permutation.identity(r)]
    if text == "w0":
        return [dg.Permutation.longest(r)]
    try:
        images = tuple(int(x) for x in text.split(","))
        if len(images) != r:
            raise ValueError(f"needs {r} entries")
        return [dg.Permutation(images)]
    except ValueError as exc:
        raise SystemExit(f"usage error: bad w {text!r}: {exc}")


def _emit(doc, out: str | None):
    blob = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


# -- diagrams ------------------------------------------------------------------


def cmd_diagrams(args) -> int:
    n = args.n
    if n < 1:
        raise SystemExit(f"usage error: n = {n} must be >= 1")
    if n > MAX_ENUM:
        raise SystemExit(f"usage error: n = {n} exceeds the exhaustive-enumeration bound {MAX_ENUM}")
    if args.count_geq is not None and args.subcommand != "order":
        raise SystemExit("usage error: --count-geq applies to 'diagrams order' only")
    queries = [None] if args.count_geq is None else _parse_w(args.count_geq, n)
    if len(queries) != 1:
        raise SystemExit(f"usage error: --count-geq takes one element, not {args.count_geq!r}")
    query = queries[0]
    if args.subcommand == "enumerate":
        records = []
        for d in dg.all_diagrams(n):
            w = d.to_permutation()
            records.append({"marks": list(d.marks), "w": list(w.images), "length": d.length()})
        _emit({"n": n, "count": len(records), "diagrams": records}, args.out)
    elif args.subcommand == "poincare":
        lhs, rhs = dg.poincare_sum(n), dg.poincare_product(n)
        _emit(
            {
                "n": n,
                "sum": lhs,
                "product": rhs,
                "equal": lhs == rhs,
            },
            args.out,
        )
    elif args.subcommand == "multiparam":
        lhs, rhs = dg.multiparam_sum(n), dg.multiparam_product(n)
        monomials = [
            {"exponents": list(e), "coeff": int(c)}
            for e, c in sorted(lhs.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        ]
        _emit({"n": n, "monomials": monomials, "equal": lhs == rhs}, args.out)
    elif args.subcommand == "order":
        doc = {"n": n, "elements": []}
        for w in dg.all_permutations(n):
            d = dg.Diagram.from_permutation(w)
            count_geq, count_leq, qpoly_geq, qpoly_leq = dg._order_values(d.marks)
            doc["elements"].append(
                {
                    "w": list(w.images),
                    "marks": list(d.marks),
                    "length": d.length(),
                    "count_geq": count_geq,
                    "count_leq": count_leq,
                    "qpoly_geq": [str(c) for c in qpoly_geq],
                    "qpoly_leq": [str(c) for c in qpoly_leq],
                }
            )
        if query is not None:
            doc["count_geq_query"] = {"w": list(query.images), "count": dg.count_geq(query)}
        _emit(doc, args.out)
    return 0


# -- series --------------------------------------------------------------------


def cmd_series(args) -> int:
    n = args.n
    lam = _parse_lambda(args.lam, n)
    k = _parse_rational(args.k, "k")
    sp = se.SpectralParam(lam, k)
    ws = _parse_w(args.w, n + 1)
    if args.depth < 0:
        raise SystemExit(f"usage error: depth {args.depth} must be >= 0")
    tables = []
    try:
        for w in ws:
            table = se.freudenthal_table_for_w(w, sp, args.depth)
            tables.append(
                {
                    "w": list(w.images),
                    "table": table.as_dict(),
                    "residual": str(se.residual_L(table)),
                }
            )
    except se.ResonanceError as exc:
        _emit({"error": str(exc)}, args.out)
        return 1
    _emit({"n": n, "k": str(k), "lambda": [str(x) for x in lam], "depth": args.depth, "solutions": tables}, args.out)
    return 0


# -- integrate -----------------------------------------------------------------


def cmd_integrate(args) -> int:
    from . import claims
    from . import cycles as cy

    n = args.n
    lam = _parse_lambda(args.lam, n)
    k = _parse_rational(args.k, "k")
    sp = se.SpectralParam(lam, k)
    ws = _parse_w(args.w, n + 1)
    if args.csv_steps < 1:
        raise SystemExit(f"usage error: --csv-steps {args.csv_steps} must be >= 1")
    r = args.z_ratio
    z = [args.scale * r ** (n - i) for i in range(n + 1)]
    try:
        quad = cy.QuadratureSpec(points_per_axis=args.points, epsilon=args.epsilon)
        bump = cy.BumpFn(quad.epsilon)
        cycles = [cy.CyclePath(dg.Diagram.from_permutation(w), z, bump) for w in ws]
    except ValueError as exc:
        raise SystemExit(f"usage error: {exc}")
    quad2 = cy.QuadratureSpec(points_per_axis=2 * args.points - 1, epsilon=args.epsilon)
    results = []
    csv_rows = []
    try:
        for w, c in zip(ws, cycles):
            try:
                a = cf.a_w(w, sp)
            except (cf.PoleError, OverflowError) as exc:  # a pole, or a Gamma past the float range
                a, a_error = None, exc
            # Integrals and ratios to the leading power at rr = r, r/2, r/4, ...,
            # in one batch: the JSON record, the Richardson estimate (which
            # needs no a(w)) and the CSV rows share them, so each z is
            # integrated once.
            count = max(args.csv_steps if args.csv_out else 1, 2)
            rrs = [r / 2.0**j for j in range(count)]
            (value, *_), ratios = cy._ratios(w, sp, quad, args.scale, rrs)
            value2 = cy.integrate(c, sp, quad2)
            rec = {
                "w": list(w.images),
                "integral": {"re": value.real, "im": value.imag},
                "ratio_to_leading_power": {"re": ratios[0].real, "im": ratios[0].imag},
                "convergence": {
                    "points": [quad.points_per_axis, quad2.points_per_axis],
                    "relative_change": abs(value2 - value) / abs(value2),
                },
            }
            est = cy._richardson(ratios[0], ratios[1])
            rec["leading_coefficient_estimate"] = {"re": est.real, "im": est.imag}
            if a is None:
                rec["a_w"] = {"error": str(a_error)}
            else:
                rec["a_w"] = {"re": a.real, "im": a.imag}
                rec["relative_deviation"] = abs(est - a) / abs(a)
            if k == 1:
                mell = cy.mellin_value_at_unit_coupling(w, z, sp)
                rec["k=1 closed-form check"] = "pass" if claims._mellin_agrees(value, mell) else "fail"
            results.append(rec)
            if args.csv_out:
                for rr, vv in zip(rrs[: args.csv_steps], ratios):
                    row = ["-".join(map(str, w.images)), rr, vv.real, vv.imag]
                    if a is not None:
                        row.append(abs(vv - a) / abs(a))
                    csv_rows.append(row)
    except (ValueError, ArithmeticError) as exc:
        _emit({"error": str(exc)}, args.out)
        return 1
    doc = {
        "n": n,
        "k": str(k),
        "lambda": [str(x) for x in lam],
        "z": z,
        "spec": dataclasses.asdict(quad),
        "results": results,
    }
    _emit(doc, args.out)
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write("w,r,ratio_re,ratio_im,rel_dev_from_a\n")
            for row in csv_rows:
                fh.write(",".join(str(x) for x in row) + "\n")
    return 0


# -- verify --------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import claims

    suites = claims.SUITES.values() if args.suite == "all" else [claims.SUITES[args.suite]]
    results = []
    for tag, fn in (check for suite in suites for check in suite):
        try:
            passed, detail = fn(args.seed)
        except Exception as exc:  # surfaced, not swallowed: the report must show it
            passed, detail = False, f"exception: {exc}"
        results.append((tag, passed, detail))
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "checks": [{"tag": t, "passed": p, "detail": d} for t, p, d in results],
        "passed": all(p for _, p, _ in results),
    }
    _emit(report, args.out)
    return 0 if report["passed"] else 1


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("diagrams", help="diagram calculus queries")
    d.add_argument("subcommand", choices=["enumerate", "poincare", "multiparam", "order"])
    d.add_argument("n", type=int)
    d.add_argument("--count-geq", default=None, help="one element: images, 'id', or 'w0'")
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_diagrams)

    s = sub.add_parser("series", help="build asymptotic-solution coefficient tables")
    s.add_argument("--n", type=int, default=1)
    s.add_argument("--k", default="3/2")
    s.add_argument("--lambda", dest="lam", default="3/10,-3/10")
    s.add_argument("--w", default="all")
    s.add_argument("--depth", type=int, default=4)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_series)

    g = sub.add_parser("integrate", help="quadrature of the form over a cycle")
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--k", default="3/2")
    g.add_argument("--lambda", dest="lam", default="3/10,-3/10")
    g.add_argument("--w", default="all")
    g.add_argument("--z-ratio", type=float, default=1e-3)
    g.add_argument("--scale", type=float, default=1.0)
    g.add_argument("--points", type=int, default=121)
    g.add_argument("--epsilon", type=float, default=0.1)
    g.add_argument("--out", default=None)
    g.add_argument("--csv-out", default=None, help="leading-asymptotic convergence trace")
    g.add_argument("--csv-steps", type=int, default=5)
    g.set_defaults(fn=cmd_integrate)

    v = sub.add_parser("verify", help="run the property suites")
    v.add_argument("suite", choices=[*VERIFY_SUITES, "all"])
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse would read "-1,1/3,2/3" as an option
        if argv[i - 1] in ("--lambda", "--k") and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
