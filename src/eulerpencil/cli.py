"""Command-line surface: one subcommand per library operation.

Every command prints a deterministic report (table, json or csv via
--format) with floats at 12 significant digits.  Exit codes: 0 for
PASS/INFO, 1 for FAIL, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import acceptance, continuum, curves, exactmath, matching, pencil, stats
from .curves import WeierstrassCurve

SCHEMA = "euler-pencil/1"


def _fmt(value):
    """Canonical 12-significant-digit rendering of result payloads."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, complex):
        return {"re": float(f"{value.real:.12g}"), "im": float(f"{value.imag:.12g}")}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, exactmath.QuadExt):
        return {"x": str(value.x), "y": str(value.y), "d": str(value.d)}
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def emit(args, command: str, payload: dict, status: str = "INFO", tol=None) -> int:
    report = {
        "schema": SCHEMA,
        "command": command,
        "status": status,
        "result": _fmt(payload),
    }
    if tol is not None:
        report["tolerance"] = tol
    fmt = getattr(args, "format", "table")
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif fmt == "csv":
        _emit_csv(report["result"])
    else:
        _emit_table(command, status, report["result"])
    return 0 if status in ("PASS", "INFO") else 1


def _emit_csv(result):
    import csv as _csv
    writer = _csv.writer(sys.stdout)
    if isinstance(result, dict) and isinstance(result.get("rows"), list):
        # a table, even an empty one: its header comes from the first row
        rows = result["rows"]
        if rows:
            header = list(rows[0])
            writer.writerow(header)
            for r in rows:
                writer.writerow([r[h] for h in header])
        return
    if isinstance(result, dict):
        writer.writerow(list(result))
        writer.writerow([json.dumps(v) if isinstance(v, (dict, list)) else v
                         for v in result.values()])
    else:
        for v in result if isinstance(result, list) else [result]:
            writer.writerow([v])


def _emit_table(command, status, result, indent=0):
    pad = "  " * indent
    if indent == 0:
        print(f"[{status}] {command}")
    if isinstance(result, dict):
        for k, v in result.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}  {k}:")
                _emit_table(command, status, v, indent + 1)
            else:
                print(f"{pad}  {k} = {v}")
    elif isinstance(result, list):
        for v in result:
            if isinstance(v, (dict, list)):
                _emit_table(command, status, v, indent + 1)
                print()
            else:
                print(f"{pad}  {v}")
    else:
        print(f"{pad}  {result}")


def _rat(text: str) -> Fraction:
    return Fraction(text)


def _rat_list(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",")]


def _cx(text: str) -> complex:
    return complex(text.replace("i", "j"))


def resolve_curve(args) -> WeierstrassCurve:
    if args.model:
        return WeierstrassCurve.from_model(_rat_list(args.model))
    if args.curve:
        entry = curves.catalogue_entry(args.curve, args.catalogue)
        if entry.model is None:
            raise ValueError(f"catalogue entry {args.curve} carries no model")
        return entry.curve
    raise ValueError("need --curve LABEL or --model a1,a2,a3,a4,a6")


def resolve_pencil_params(args):
    if args.pencil:
        tau, delta, Delta = _rat_list(args.pencil)
        return tau, delta, Delta
    return matching.CANONICAL_PARAMS


def resolve_pencil(args) -> pencil.Pencil2:
    return pencil.pencil_from_tdd(*resolve_pencil_params(args), _rat(args.E))


def _basepoint_payload(bp: matching.Basepoint) -> dict:
    return {
        "w": bp.w if isinstance(bp.w, exactmath.QuadExt) else complex(bp.w),
        "u": bp.u,
        "lambda": bp.lam,
        "branch": bp.branch,
        "sheet": bp.sheet,
    }


def _match_payload(rep: matching.MatchReport) -> dict:
    return {
        "p": rep.p,
        "a_p": rep.a_p,
        "params": [str(v) for v in rep.params],
        "basepoint": _basepoint_payload(rep.basepoint),
        "residual_tr": rep.residual_tr,
        "residual_det": rep.residual_det,
        "P_value": rep.P_value,
        "P_residual": rep.P_residual,
        "offshell_distance": rep.offshell_distance,
        "euler_poly": list(rep.euler_poly),
        "status": rep.status,
    }


# -- command implementations -------------------------------------------------


def cmd_ap(args):
    curve = resolve_curve(args)
    table = curves.build_ap_table(curve, args.max_p, include_bad=args.include_bad)
    rows = [{"p": p, "a_p": a, "class": cls} for p, a, cls in table.entries]
    return emit(args, "ap", {"curve": table.label, "rows": rows})


def cmd_good_primes(args):
    curve = resolve_curve(args)
    return emit(args, "good-primes", {"primes": curves.good_primes(curve, args.max_p)})


def cmd_hasse(args):
    ok = curves.hasse_check(args.ap, args.p)
    return emit(args, "hasse", {"a_p": args.ap, "p": args.p, "ok": ok},
                "PASS" if ok else "FAIL")


def cmd_cornacchia(args):
    cands = sorted(curves.cornacchia_candidates(args.p))
    return emit(args, "cornacchia", {"p": args.p, "candidates": cands})


def cmd_quartic(args):
    a, b, c, d, e = _rat_list(args.coeffs)
    big_i, big_j = curves.quartic_invariants(a, b, c, d, e)
    A, B, j = curves.quartic_to_weierstrass(a, b, c, d, e)
    return emit(args, "quartic", {"I": big_i, "J": big_j, "A": A, "B": B, "j": j})


def cmd_legendre_j(args):
    return emit(args, "legendre-j", {"j": curves.legendre_j(_rat(args.lambda_cr))})


def cmd_curve_j(args):
    curve = resolve_curve(args)
    inv = curves.curve_invariants(curve)
    return emit(args, "curve-j", {"j": inv.j, "disc": inv.disc, "c4": inv.c4, "c6": inv.c6})


def cmd_pencil(args):
    pen = resolve_pencil(args)
    return emit(args, "pencil", {
        "E1": pen.E1, "E2": pen.E2, "a": pen.a, "d": pen.d, "b_sq": pen.b_sq,
        "tau": pen.tau, "delta": pen.delta, "Delta": pen.Delta, "mu": pen.mu,
    })


def cmd_spectral_poly(args):
    pen = resolve_pencil(args)
    poly = pencil.spectral_poly(pen)
    terms = {f"u^{ju} lam^{jl}": c for (ju, jl), c in sorted(poly.terms.items())}
    return emit(args, "spectral-poly", {"terms": terms})


def cmd_eta_gram(args):
    pen = resolve_pencil(args)
    gram = pencil.eta_gram(pen, _rat(args.c))
    entries = [[{f"lam^{k}": v for k, v in entry.items()} for entry in row]
               for row in gram.entries]
    return emit(args, "eta-gram", {"entries": entries, "c": gram.c})


def cmd_evenness(args):
    pen = resolve_pencil(args)
    ok = pencil.lambda_evenness_check(pencil.eta_gram(pen, 1))
    return emit(args, "evenness", {"even": ok}, "PASS" if ok else "FAIL")


def cmd_pontryagin(args):
    pen = resolve_pencil(args)
    return emit(args, "pontryagin",
                {"index": pencil.pontryagin_index(pencil.eta_gram(pen, 1))})


def cmd_monomial_gram(args):
    matrix, rank, eigs = pencil.monomial_gram8(args.eps1, args.eps2)
    return emit(args, "monomial-gram", {
        "rank": rank, "reduced_eigenvalues": eigs,
        "matrix": [[str(v) for v in row] for row in matrix],
    })


def cmd_j(args):
    if args.tau_sq is not None:
        j = pencil.j_formula_tausq(_rat(args.tau_sq), _rat(args.delta), _rat(args.Delta))
    else:
        j = pencil.j_formula(_rat(args.tau), _rat(args.delta), _rat(args.Delta))
    return emit(args, "j", {"j": j})


def cmd_j1728_q(args):
    q = pencil.j1728_locus_Q(_rat(args.tau_sq), _rat(args.delta), _rat(args.Delta))
    return emit(args, "j1728-q", {"Q": q, "on_locus": q == 0})


def cmd_basepoint(args):
    if args.pencil:
        tau, delta, Delta = _rat_list(args.pencil)
        bp = matching.basepoint_solve(tau, delta, Delta, args.ap, args.p, args.branch)
    else:
        bp = matching.canonical_basepoint(args.ap, args.p, args.branch)
    return emit(args, "basepoint", _basepoint_payload(bp))


def cmd_match(args):
    params = resolve_pencil_params(args)
    if args.p is not None:
        a_p = args.ap
        if a_p is None:
            a_p = curves.ap_count(resolve_curve(args), args.p)
        rep = matching.euler_match_verify(params, a_p, args.p, args.branch, args.tol)
        return emit(args, "match", _match_payload(rep), rep.status, args.tol)
    if args.max_p is None:
        raise ValueError("need --p or --max-p")
    curve = resolve_curve(args)
    rows, status = [], "PASS"
    for p in curves.good_primes(curve, args.max_p):
        a_p = curves.ap_count(curve, p)
        rep = matching.euler_match_verify(params, a_p, p, args.branch, args.tol)
        if not rep.passed:
            status = "FAIL"
        rows.append(_match_payload(rep))
    return emit(args, "match", {"rows": rows}, status, args.tol)


def cmd_reduce_check(args):
    tau, delta, Delta = resolve_pencil_params(args)
    ok = matching.symbolic_reduction_check(tau, delta, Delta, args.ap, args.p)
    return emit(args, "reduce-check", {"exact": ok}, "PASS" if ok else "FAIL")


def cmd_disc_identity(args):
    d, dd, total = matching.discriminant_identity(args.ap, args.p)
    ok = total == 4 * args.p * args.p
    return emit(args, "disc-identity",
                {"Delta_p": d, "D_p": dd, "sum": total, "4p^2": 4 * args.p**2},
                "PASS" if ok else "FAIL")


def cmd_d_off(args):
    return emit(args, "d-off", {"d_off": matching.offshell_distance(_rat(args.w), args.p)})


def cmd_cd_ratio(args):
    r, disc = matching.cd_matching_ratio(args.ap, args.p)
    return emit(args, "cd-ratio", {"R_A": r, "Delta_CD": disc})


def cmd_tco(args):
    a_p = args.ap
    if a_p is None:
        curve = curves.catalogue_entry("48a1").curve
        a_p = curves.ap_count(curve, args.p)
    y, lam_sq, ok = matching.tco_basepoint(a_p, args.p)
    return emit(args, "tco", {"a_p": a_p, "Y": y, "lambda_sq": lam_sq, "hasse_ok": ok},
                "PASS" if ok else "FAIL")


def cmd_zco(args):
    u, lam = matching.zco_basepoint()
    m = matching.zco_matrix(u, lam)
    aplus = exactmath.group_pseudoinverse2(m)
    return emit(args, "zco", {
        "u": u, "lambda": lam, "det": m.det(), "trace": m.trace(),
        "pinv_trace": aplus.trace(),
        "euler_factor_at_half": matching.zco_euler_factor(0.5),
    })


def cmd_zco_c(args):
    ok = matching.zco_c_trace_invariance(_rat(args.c), _cx(args.u), args.tol)
    return emit(args, "zco-c", {"c": _rat(args.c), "u": _cx(args.u), "invariant": ok},
                "PASS" if ok else "FAIL", args.tol)


def cmd_golden(args):
    plus, minus = matching.golden_ratio_spectrum()
    return emit(args, "golden", {"lambda_plus": plus, "lambda_minus": minus})


def cmd_obstruction(args):
    curve = resolve_curve(args)
    witness = matching.interpolation_obstruction(curve, args.K)
    if witness is None:
        return emit(args, "obstruction", {"witness": None}, "INFO")
    p, q, a_p, a_q, slopes = witness
    return emit(args, "obstruction",
                {"p": p, "q": q, "a_p": a_p, "a_q": a_q, "slopes": list(slopes)})


def cmd_universality(args):
    disp = continuum.DISPERSIONS[args.dispersion]
    res = continuum.universality_integral(disp, _cx(args.z), args.tol)
    payload = {"value": res.value, "estimated_error": res.estimated_error,
               "evaluations": res.evaluations}
    z = _cx(args.z)
    if z.imag == 0:
        payload["closed_form"] = continuum.arcsine_closed_form(z)
    return emit(args, "universality", payload, "INFO", args.tol)


def cmd_arcsine(args):
    if args.z is not None:
        return emit(args, "arcsine", {"closed_form": continuum.arcsine_closed_form(_cx(args.z))})
    payload = {"t": args.t, "pdf": continuum.arcsine_pdf(args.t),
               "cdf": continuum.arcsine_cdf(args.t)}
    return emit(args, "arcsine", payload)


def cmd_chi4_l(args):
    L = continuum.dirichlet_L_chi4(args.s, args.tol)
    return emit(args, "chi4-L", {"s": args.s, "L": L, "eta": 2 * L}, "INFO", args.tol)


def cmd_eta_feq(args):
    res = continuum.eta_functional_equation_residual(args.s)
    return emit(args, "eta-feq", {"s": args.s, "residual": res},
                "PASS" if res <= args.tol else "FAIL", args.tol)


def cmd_delta_series(args):
    curve = resolve_curve(args)
    series = stats.delta_p_series(curve, args.X)
    rows = [{"p": r.p, "a_p": r.a_p, "w_plus": r.w_plus, "u": r.u,
             "lambda": r.lam, "delta": r.delta, "class": r.cls}
            for r in series.rows]
    return emit(args, "delta-series", {"curve": series.label, "X": series.X, "rows": rows})


def cmd_sato_tate(args):
    curve = resolve_curve(args)
    series = stats.delta_p_series(curve, args.X)
    rep = stats.sato_tate_report(series, cm_by_zi=curves.cm_discriminant(curve) is not None)
    payload = {
        "inert_fraction": rep.inert_fraction,
        "split_ks_distance": rep.split_ks_distance,
        "histogram": [{"lo": lo, "hi": hi, "count": n} for lo, hi, n in rep.histogram],
    }
    if rep.cm_warning:
        payload["warning"] = rep.cm_warning
    return emit(args, "sato-tate", payload)


def cmd_bulk(args):
    curve = resolve_curve(args)
    series = stats.delta_p_series(curve, args.X)
    n, ratio = stats.bulk_count(series, args.eps)
    return emit(args, "bulk", {
        "N_delta": n, "ratio": ratio, "target": stats.bulk_target(args.eps),
    })


def cmd_accumulate(args):
    curve = resolve_curve(args)
    x_list = [int(x) for x in args.X_list.split(",")]
    points = stats.accumulation_means(curve, x_list)
    rows = [{"X": pt.X, "u_bar": pt.u_bar, "lambda_bar": pt.lam_bar, "dev": pt.dev}
            for pt in points]
    return emit(args, "accumulate", {"rows": rows})


def cmd_catalogue(args):
    rows = []
    for entry in curves.load_catalogue(args.catalogue):
        rows.append({
            "label": entry.label,
            "model": list(entry.model) if entry.model else None,
            "j": str(entry.j) if entry.j is not None else None,
            "cm_discriminant": entry.cm_discriminant,
            "pencil_params": [str(v) for v in entry.pencil_params]
            if entry.pencil_params else None,
            "source": entry.source,
        })
    return emit(args, "catalogue", {"rows": rows})


def cmd_verify_all(args):
    results = acceptance.run_all()
    rows = [{"criterion": r.number, "name": r.name,
             "status": "PASS" if r.passed else "FAIL", "detail": r.detail}
            for r in results]
    status = "PASS" if all(r.passed for r in results) else "FAIL"
    return emit(args, "verify-all", {"rows": rows}, status)


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerpencil",
        description="Operator encoding of L-function Euler factors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        return p

    def catalogue_opt(p):
        p.add_argument("--catalogue", default=None, help="catalogue JSON override")

    def curve_opts(p):
        p.add_argument("--curve", help="catalogue label")
        p.add_argument("--model", help="a1,a2,a3,a4,a6")
        catalogue_opt(p)

    def pencil_opts(p):
        p.add_argument("--pencil", help="tau,delta,Delta (decimals parsed exactly)")

    def tol_opt(p):
        p.add_argument("--tol", type=float, default=1e-9)

    p = add("ap", cmd_ap, help="Frobenius traces by point counting")
    curve_opts(p)
    p.add_argument("--max-p", type=int, required=True)
    p.add_argument("--include-bad", action="store_true")

    p = add("good-primes", cmd_good_primes)
    curve_opts(p)
    p.add_argument("--max-p", type=int, required=True)

    p = add("hasse", cmd_hasse)
    p.add_argument("--ap", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("cornacchia", cmd_cornacchia)
    p.add_argument("--p", type=int, required=True)

    p = add("quartic", cmd_quartic, help="plain-coefficient quartic to Weierstrass")
    p.add_argument("--coeffs", required=True, help="a,b,c,d,e")

    p = add("legendre-j", cmd_legendre_j)
    p.add_argument("--lambda-cr", dest="lambda_cr", required=True)

    p = add("curve-j", cmd_curve_j)
    curve_opts(p)

    # the commands that build a Pencil2, and so read --E
    for name, fn in (("pencil", cmd_pencil), ("spectral-poly", cmd_spectral_poly),
                     ("evenness", cmd_evenness), ("pontryagin", cmd_pontryagin),
                     ("eta-gram", cmd_eta_gram)):
        p = add(name, fn)
        pencil_opts(p)
        p.add_argument("--E", default="1")
    p.add_argument("--c", default="1")  # eta-gram, the last of the loop

    p = add("monomial-gram", cmd_monomial_gram)
    p.add_argument("--eps1", type=int, default=1)
    p.add_argument("--eps2", type=int, default=-1)

    p = add("j", cmd_j)
    tau = p.add_mutually_exclusive_group(required=True)
    tau.add_argument("--tau")
    tau.add_argument("--tau-sq", dest="tau_sq")
    p.add_argument("--delta", required=True)
    p.add_argument("--Delta", required=True)

    p = add("j1728-q", cmd_j1728_q)
    p.add_argument("--tau-sq", dest="tau_sq", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--Delta", required=True)

    p = add("basepoint", cmd_basepoint)
    p.add_argument("--pencil")
    p.add_argument("--ap", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")

    p = add("match", cmd_match)
    curve_opts(p)
    pencil_opts(p)
    tol_opt(p)
    p.add_argument("--ap", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--max-p", type=int)
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")

    p = add("reduce-check", cmd_reduce_check)
    pencil_opts(p)
    p.add_argument("--ap", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("disc-identity", cmd_disc_identity)
    p.add_argument("--ap", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("d-off", cmd_d_off)
    p.add_argument("--w", required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("cd-ratio", cmd_cd_ratio)
    p.add_argument("--ap", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("tco", cmd_tco)
    p.add_argument("--ap", type=int)
    p.add_argument("--p", type=int, required=True)

    add("zco", cmd_zco)

    p = add("zco-c", cmd_zco_c)
    p.add_argument("--c", required=True)
    p.add_argument("--u", required=True, help="complex, e.g. 0.3+0.4i")
    tol_opt(p)

    add("golden", cmd_golden)

    p = add("obstruction", cmd_obstruction)
    curve_opts(p)
    p.add_argument("--K", type=int, default=10)

    p = add("universality", cmd_universality)
    p.add_argument("--dispersion", choices=tuple(continuum.DISPERSIONS), default="tanh")
    p.add_argument("--z", required=True)
    tol_opt(p)

    p = add("arcsine", cmd_arcsine)
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--z")
    point.add_argument("--t", type=float)

    for name, fn in (("chi4-L", cmd_chi4_l), ("eta-feq", cmd_eta_feq)):
        p = add(name, fn)
        p.add_argument("--s", type=float, required=True)
        tol_opt(p)

    for name, fn in (("delta-series", cmd_delta_series), ("sato-tate", cmd_sato_tate)):
        p = add(name, fn)
        curve_opts(p)
        p.add_argument("--X", type=int, default=10**4)

    p = add("bulk", cmd_bulk)
    curve_opts(p)
    p.add_argument("--X", type=int, default=10**4)
    p.add_argument("--eps", type=float, required=True)

    p = add("accumulate", cmd_accumulate)
    curve_opts(p)
    p.add_argument("--X-list", dest="X_list", default="1000,10000")

    catalogue_opt(add("catalogue", cmd_catalogue))
    add("verify-all", cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
