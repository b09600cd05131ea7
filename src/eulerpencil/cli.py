"""Command-line surface: one subcommand per library operation.

Every command prints a deterministic report (table, json or csv via
--format) with floats at 12 significant digits.  Exit codes: 0 for
PASS/INFO, 1 for FAIL, 2 for usage errors.

A cold process pays only for the command it runs: the library modules are
bound lazily, so a module's body runs on its first attribute access, and
``main`` builds only the named subcommand's parser (all of them for help, no
command or an unknown one).
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import math
import operator
import sys
from fractions import Fraction


def _lazy(name: str):
    """Submodule ``name`` of this package; its body runs on first attribute access."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# continuum loads at once: --dispersion takes its choices from continuum.DISPERSIONS
acceptance, continuum, curves, exactmath, matching, pencil, stats = map(
    _lazy, ("acceptance", "continuum", "curves", "exactmath", "matching", "pencil", "stats"))

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
    if isinstance(result, dict) and isinstance(result.get("rows"), list):
        # a table, even an empty one: its header comes from the first row
        if result["rows"]:
            table = _csv.DictWriter(sys.stdout, fieldnames=list(result["rows"][0]))
            table.writeheader()
            table.writerows(result["rows"])
        return
    writer = _csv.writer(sys.stdout)
    if isinstance(result, dict):
        writer.writerow(list(result))
        writer.writerow([json.dumps(v) if isinstance(v, (dict, list)) else v
                         for v in result.values()])
    else:
        writer.writerows([v] for v in (result if isinstance(result, list) else [result]))


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


def _rat_list(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",")]


def _cx(text: str) -> complex:
    """A finite complex number; a trailing ``i`` is read as ``j`` (0.3+0.4i)."""
    z = complex(text[:-1] + "j" if text.endswith("i") else text)
    if not cmath.isfinite(z):
        raise ValueError(f"{text} is not a finite complex number")
    return z


def _p(text: str) -> int:
    """A prime candidate p >= 2; primality is left to the routine that needs it."""
    try:
        p = int(text)
    except ValueError:
        # argparse's own wording for a type=int option
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if p < 2:
        raise argparse.ArgumentTypeError(f"p={p} must be >= 2")
    return p


def resolve_curve(args) -> curves.WeierstrassCurve:
    if args.model:
        return curves.WeierstrassCurve.from_model(_rat_list(args.model))
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
    return pencil.pencil_from_tdd(*resolve_pencil_params(args), Fraction(args.E))


def _basepoint_payload(bp: matching.Basepoint) -> dict:
    return {
        "w": bp.w,
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


# -- the registry: each subcommand is one function next to its options -------

COMMANDS: dict = {}  # name -> (fn, options, add_parser kwargs), in parser order


def command(name: str, *options, **parser_kwargs):
    """Register ``fn(args)`` as subcommand ``name``, its ``options`` after --format.

    ``fn`` returns its payload (status INFO) or ``(payload, ok)`` (PASS or FAIL).
    """
    def register(fn):
        COMMANDS[name] = (fn, options, parser_kwargs)
        return fn
    return register


def opt(*flags, **kwargs):
    """One option, added to a subcommand's parser (or group) by ``build_parser``."""
    return lambda parser: parser.add_argument(*flags, **kwargs)


def one_of(*options):
    """A required choice of exactly one of ``options``."""
    def add(parser):
        group = parser.add_mutually_exclusive_group(required=True)
        for option in options:
            option(group)
    return add


CATALOGUE = opt("--catalogue", default=None, help="catalogue JSON override")
CURVE = (opt("--curve", help="catalogue label"), opt("--model", help="a1,a2,a3,a4,a6"),
         CATALOGUE)
PENCIL = opt("--pencil", help="tau,delta,Delta (decimals parsed exactly)")
E = opt("--E", default="1")
TOL = opt("--tol", type=float, default=1e-9)
AP = opt("--ap", type=int, required=True)
P = opt("--p", type=_p, required=True)
BRANCH = opt("--branch", choices=("plus", "minus"), default="plus")
X = opt("--X", type=int, default=10**4)
DELTAS = (opt("--delta", required=True), opt("--Delta", required=True))


@command("ap", *CURVE, opt("--max-p", type=int, required=True),
         opt("--include-bad", action="store_true"), help="Frobenius traces by point counting")
def cmd_ap(args):
    curve = resolve_curve(args)
    rows = [{"p": p, "a_p": a_p, "class": "good"}
            for p, a_p, _ in curves.ap_sweep(curve, args.max_p)]
    if args.include_bad:
        good = {row["p"] for row in rows}
        rows += [{"p": p, "a_p": curves.ap_count(curve, p, force=True), "class": "bad"}
                 for p in curves.primes_upto(args.max_p) if p not in good]
        rows.sort(key=operator.itemgetter("p"))
    return {"curve": str(curve), "rows": rows}


@command("good-primes", *CURVE, opt("--max-p", type=int, required=True))
def cmd_good_primes(args):
    return {"primes": curves.good_primes(resolve_curve(args), args.max_p)}


@command("hasse", AP, P)
def cmd_hasse(args):
    ok = curves.hasse_check(args.ap, args.p)
    return {"a_p": args.ap, "p": args.p, "ok": ok}, ok


@command("cornacchia", P)
def cmd_cornacchia(args):
    return {"p": args.p, "candidates": sorted(curves.cornacchia_candidates(args.p))}


@command("quartic", opt("--coeffs", required=True, help="a,b,c,d,e"),
         help="plain-coefficient quartic to Weierstrass")
def cmd_quartic(args):
    a, b, c, d, e = _rat_list(args.coeffs)
    big_i, big_j = curves.quartic_invariants(a, b, c, d, e)
    A, B, j = curves.quartic_to_weierstrass(a, b, c, d, e)
    return {"I": big_i, "J": big_j, "A": A, "B": B, "j": j}


@command("legendre-j", opt("--lambda-cr", required=True))
def cmd_legendre_j(args):
    return {"j": curves.legendre_j(Fraction(args.lambda_cr))}


@command("curve-j", *CURVE)
def cmd_curve_j(args):
    inv = curves.curve_invariants(resolve_curve(args))
    return {"j": inv.j, "disc": inv.disc, "c4": inv.c4, "c6": inv.c6}


@command("pencil", PENCIL, E)
def cmd_pencil(args):
    pen = resolve_pencil(args)
    fields = ("E1", "E2", "a", "d", "b_sq", "tau", "delta", "Delta", "mu")
    return {name: getattr(pen, name) for name in fields}


@command("spectral-poly", PENCIL, E)
def cmd_spectral_terms(args):
    pen = resolve_pencil(args)
    u, lam = exactmath.LaurentPoly.term(1, u=1), exactmath.LaurentPoly.term(1, lam=1)
    poly = pencil.spectral_value(pen.E1, pen.tau, pen.delta, pen.Delta, u, lam)
    exps = {(dict(m).get("u", 0), dict(m).get("lam", 0)): c for m, c in poly.terms.items()}
    return {"terms": {f"u^{ju} lam^{jl}": c for (ju, jl), c in sorted(exps.items())}}


@command("evenness", PENCIL, E)
def cmd_evenness(args):
    ok = pencil.lambda_evenness_check(pencil.eta_gram(resolve_pencil(args), 1))
    return {"even": ok}, ok


@command("pontryagin", PENCIL, E)
def cmd_pontryagin(args):
    return {"index": pencil.pontryagin_index(pencil.eta_gram(resolve_pencil(args), 1))}


@command("eta-gram", PENCIL, E, opt("--c", default="1"))
def cmd_eta_gram(args):
    gram = pencil.eta_gram(resolve_pencil(args), Fraction(args.c))
    entries = [[{f"lam^{k}": v for k, v in entry.items()} for entry in row]
               for row in gram.entries]
    return {"entries": entries, "c": gram.c}


@command("monomial-gram", opt("--eps1", type=int, default=1), opt("--eps2", type=int, default=-1))
def cmd_monomial_gram(args):
    matrix, rank, eigs = pencil.monomial_gram8(args.eps1, args.eps2)
    return {
        "rank": rank, "reduced_eigenvalues": eigs,
        "matrix": [[str(v) for v in row] for row in matrix],
    }


@command("j", one_of(opt("--tau"), opt("--tau-sq")), *DELTAS)
def cmd_j(args):
    if args.tau_sq is not None:
        return {"j": pencil.j_formula_tausq(*map(Fraction, (args.tau_sq, args.delta, args.Delta)))}
    return {"j": pencil.j_formula(*map(Fraction, (args.tau, args.delta, args.Delta)))}


@command("j1728-q", opt("--tau-sq", required=True), *DELTAS)
def cmd_j1728_q(args):
    q = pencil.j1728_locus_Q(*map(Fraction, (args.tau_sq, args.delta, args.Delta)))
    return {"Q": q, "on_locus": q == 0}


@command("basepoint", opt("--pencil"), AP, P, BRANCH)
def cmd_basepoint(args):
    bp = matching.basepoint_for(resolve_pencil_params(args), args.ap, args.p, args.branch)
    return _basepoint_payload(bp)


@command("match", *CURVE, PENCIL, TOL, opt("--ap", type=int), opt("--p", type=_p),
         opt("--max-p", type=int), BRANCH)
def cmd_match(args):
    params = resolve_pencil_params(args)
    if args.p is not None:
        a_p = args.ap if args.ap is not None else curves.ap_count(resolve_curve(args), args.p)
        rep = matching.euler_match_verify(params, a_p, args.p, args.branch, args.tol)
        return _match_payload(rep), rep.passed
    if args.max_p is None:
        raise ValueError("need --p or --max-p")
    curve = resolve_curve(args)
    reps = [matching.euler_match_verify(params, curves.ap_count(curve, p), p,
                                        args.branch, args.tol)
            for p in curves.good_primes(curve, args.max_p)]
    return {"rows": [_match_payload(rep) for rep in reps]}, all(rep.passed for rep in reps)


@command("reduce-check", PENCIL, AP, P)
def cmd_reduce_check(args):
    ok = matching.symbolic_reduction_check(*resolve_pencil_params(args), args.ap, args.p)
    return {"exact": ok}, ok


@command("disc-identity", AP, P)
def cmd_disc_identity(args):
    d, dd, total = matching.discriminant_identity(args.ap, args.p)
    target = 4 * args.p**2
    return {"Delta_p": d, "D_p": dd, "sum": total, "4p^2": target}, total == target


@command("d-off", opt("--w", required=True), P)
def cmd_d_off(args):
    return {"d_off": matching.offshell_distance(Fraction(args.w), args.p)}


@command("cd-ratio", AP, P)
def cmd_cd_ratio(args):
    r, disc = matching.cd_matching_ratio(args.ap, args.p)
    return {"R_A": r, "Delta_CD": disc}


@command("tco", opt("--ap", type=int), P)
def cmd_tco(args):
    a_p = args.ap
    if a_p is None:
        a_p = curves.ap_count(curves.catalogue_entry("48a1").curve, args.p)
    y, lam_sq, ok = matching.tco_basepoint(a_p, args.p)
    return {"a_p": a_p, "Y": y, "lambda_sq": lam_sq, "hasse_ok": ok}, ok


@command("zco")
def cmd_zco(args):
    u, lam = matching.zco_basepoint()
    m = matching.zco_matrix(*matching.ZCO_ON_SHELL)
    exact = {"det": m.det(), "trace": m.trace(),
             "pinv_trace": exactmath.group_pseudoinverse2(m).trace(),
             "euler_factor_at_half": matching.zco_euler_factor(Fraction(1, 2))}
    return {"u": u, "lambda": lam, **{k: complex(v) for k, v in exact.items()}}


@command("zco-c", opt("--c", required=True),
         opt("--u", required=True, help="complex, e.g. 0.3+0.4i"), TOL)
def cmd_zco_c(args):
    c, u = Fraction(args.c), _cx(args.u)
    ok = matching.zco_c_trace_invariance(c, u, args.tol)
    return {"c": c, "u": u, "invariant": ok}, ok


@command("golden")
def cmd_golden(args):
    plus, minus = matching.golden_ratio_spectrum()
    return {"lambda_plus": plus, "lambda_minus": minus}


@command("obstruction", *CURVE, opt("--K", type=int, default=10))
def cmd_obstruction(args):
    witness = matching.interpolation_obstruction(resolve_curve(args), args.K)
    if witness is None:
        return {"witness": None}
    p, q, a_p, a_q, slopes = witness
    return {"p": p, "q": q, "a_p": a_p, "a_q": a_q, "slopes": list(slopes)}


@command("universality",
         opt("--dispersion", choices=tuple(continuum.DISPERSIONS), default="tanh"),
         opt("--z", required=True), TOL)
def cmd_universality(args):
    z = _cx(args.z)
    res = continuum.universality_integral(continuum.DISPERSIONS[args.dispersion], z, args.tol)
    payload = {"value": res.value, "estimated_error": res.estimated_error,
               "evaluations": res.evaluations}
    if z.imag == 0:
        payload["closed_form"] = continuum.arcsine_closed_form(z)
    return payload


@command("arcsine", one_of(opt("--z"), opt("--t", type=float)))
def cmd_arcsine(args):
    if args.z is not None:
        return {"closed_form": continuum.arcsine_closed_form(_cx(args.z))}
    return {"t": args.t, "pdf": continuum.arcsine_pdf(args.t),
            "cdf": continuum.arcsine_cdf(args.t)}


@command("chi4-L", opt("--s", type=float, required=True), TOL)
def cmd_chi4_l(args):
    L = continuum.dirichlet_L_chi4(args.s, args.tol)
    return {"s": args.s, "L": L, "eta": 2 * L}


@command("eta-feq", opt("--s", type=float, required=True), TOL)
def cmd_eta_feq(args):
    res = continuum.eta_functional_equation_residual(args.s)
    return {"s": args.s, "residual": res}, res <= args.tol


@command("delta-series", *CURVE, X)
def cmd_delta_series(args):
    series = stats.delta_p_series(resolve_curve(args), args.X)
    rows = [{"p": r.p, "a_p": r.a_p, "w_plus": r.w_plus, "u": r.u,
             "lambda": r.lam, "delta": r.delta, "class": r.cls}
            for r in series.rows]
    return {"curve": series.label, "X": series.X, "rows": rows}


@command("sato-tate", *CURVE, X)
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
    return payload


@command("bulk", *CURVE, X, opt("--eps", type=float, required=True))
def cmd_bulk(args):
    series = stats.delta_p_series(resolve_curve(args), args.X)
    n, ratio = stats.bulk_count(series, args.eps)
    return {"N_delta": n, "ratio": ratio, "target": stats.bulk_target(args.eps)}


@command("accumulate", *CURVE, opt("--X-list", default="1000,10000"))
def cmd_accumulate(args):
    x_list = [int(x) for x in args.X_list.split(",")]
    points = stats.accumulation_means(resolve_curve(args), x_list)
    rows = [{"X": pt.X, "u_bar": pt.u_bar, "lambda_bar": pt.lam_bar, "dev": pt.dev}
            for pt in points]
    return {"rows": rows}


@command("catalogue", CATALOGUE)
def cmd_catalogue(args):
    return {"rows": [{
        "label": entry.label,
        "model": list(entry.model) if entry.model else None,
        "j": str(entry.j) if entry.j is not None else None,
        "cm_discriminant": entry.cm_discriminant,
        "pencil_params": [str(v) for v in entry.pencil_params]
        if entry.pencil_params else None,
        "source": entry.source,
    } for entry in curves.load_catalogue(args.catalogue)]}


@command("verify-all")
def cmd_verify_all(args):
    results = acceptance.run_all()
    rows = [{"criterion": r.number, "name": r.name,
             "status": "PASS" if r.passed else "FAIL", "detail": r.detail}
            for r in results]
    return {"rows": rows}, all(r.passed for r in results)


# -- parser and dispatch -----------------------------------------------------


def build_parser(name=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of subcommand ``name`` alone.

    A subparser's prog, help and usage do not depend on its siblings; the
    top-level usage lists every command either way.
    """
    parser = argparse.ArgumentParser(
        prog="eulerpencil",
        description="Operator encoding of L-function Euler factors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command_name in COMMANDS if name is None else (name,):
        fn, options, parser_kwargs = COMMANDS[command_name]
        p = sub.add_parser(command_name, **parser_kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        for option in options:
            option(p)
    if name is not None:
        # the top-level usage ("unrecognized arguments") still lists every command
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for dest, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{dest} = {value} is not finite")
        result = args.fn(args)
        payload, ok = result if isinstance(result, tuple) else (result, None)
        status = "INFO" if ok is None else "PASS" if ok else "FAIL"
        # tolerance is reported exactly by the subcommands that take --tol
        return emit(args, args.command, payload, status, getattr(args, "tol", None))
    except (ValueError, KeyError, ArithmeticError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
