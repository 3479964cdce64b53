"""Command-line front end: build, verify, classify and report, with exact
scalars end to end.

Exit status: 0 pass, 1 fail (a failed claim or certificate), 2 undecided
(rank did not stabilize), 3 configuration or usage error.  Identical
invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import dual, fodc, linalg, rmat
from .coordalg import CoordElem, NotInvariantError, YoungWeight, peter_weyl_rank
from .cyclotomic import InvalidCharacterError, admissible_zeta
from .dual import Policy, RankUnstableError, Workspace
from .scalar import FieldConfig, UnsupportedConfigError

# mathematical failures: the input was well formed, but a certificate failed
FAILURES = (
    NotInvariantError,
    fodc.NotCentralError,
    fodc.NotDirectError,
    dual.AntipodeFailureError,
    rmat.SpectralFailureError,
)

CLAIMS = (
    "minor-tau",
    "centrality",
    "tensor-identity",
    "coideal",
    "leibniz",
    "factorizability",
    "direct-sum",
    "central-generates",
)


def positive_int(text):
    """argparse type for degrees: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def make_parser():
    p = argparse.ArgumentParser(
        prog="qfodc",
        description="exact bicovariant differential calculus workbench for "
        "SL_q(N) and Sp_q(2n)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--series", choices=("sl", "sp"), required=True)
        sp.add_argument(
            "--n", type=int, required=True,
            help="matrix size N for sl (SL_q(N)); rank n for sp (Sp_q(2n))",
        )
        sp.add_argument("--zeta", default="1",
                        help="1, -1, i, -i, or w[k] for zeta_N^k")
        sp.add_argument("--d-max", type=positive_int, default=6)
        sp.add_argument("--format", choices=("json", "markdown"), default="json")
        sp.add_argument("--out", default=None, help="write the report to FILE")

    def degree_option(sp):
        sp.add_argument("--degree", type=positive_int, default=None,
                        help="certification degree")

    b = sub.add_parser("build", help="construct Gamma_zeta(v) and report its data")
    common(b)
    b.add_argument("--corep", default="u")

    v = sub.add_parser("verify", help="run a named verification claim")
    common(v)
    degree_option(v)
    v.add_argument("--claim", choices=CLAIMS, required=True)
    v.add_argument("--corep", default="u")

    c = sub.add_parser("classify", help="decompose a quantum Lie algebra")
    common(c)
    degree_option(c)
    c.add_argument("--corep", default=None, help="classify X_zeta(corep)")
    c.add_argument("--central", default=None,
                   help="classify the span generated by the central element "
                        "c_zeta(corep descriptor)")
    c.add_argument("--frame-bound", type=int, default=2)

    r = sub.add_parser("report", help="build plus the standard verification bundle")
    common(r)
    r.add_argument("--corep", default="u")
    return p


def parse_zeta(config, text):
    t = text.strip().lower()
    order = config.zeta_order
    if t in ("1", "+1"):
        return admissible_zeta(config, 1, 0)
    if t == "-1":
        return admissible_zeta(config, 2, 1)
    if t == "i":
        return admissible_zeta(config, 4, 1)
    if t == "-i":
        return admissible_zeta(config, 4, 3)
    if t.startswith("w"):
        rest = t[1:].lstrip("^")
        power = int(rest) if rest else 1
        return admissible_zeta(config, order, power)
    raise InvalidCharacterError(f"cannot parse character {text!r}")


def field_config(args):
    if args.series == "sl":
        return FieldConfig.sl(args.n)
    return FieldConfig.sp(args.n)


def emit(args, payload, status):
    """Render the payload deterministically and exit with the status."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"# qfodc {payload.get('command', '')}".rstrip()]
        for k in sorted(payload):
            if k == "command":
                continue
            v = payload[k]
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True)
            lines.append(f"- **{k}**: {v}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_build(args):
    config = field_config(args)
    ws = Workspace(config, _policy(args))
    zeta = parse_zeta(config, args.zeta)
    v = ws.corep(args.corep)
    lie = fodc.quantum_lie(ws, v, zeta)
    payload = {
        "command": "build",
        "config": str(config),
        "corep": args.corep,
        "corep_dim": v.dim,
        "zeta": str(zeta),
        "dim": lie.certified_dim,
        "rank_with_eps": lie.rank_with_eps,
        "cert_degree": lie.cert_degree,
        "basis": [x.label for x in lie.basis if x.terms],
        "invariant_dim_nominal": v.dim * v.dim,
    }
    return emit(args, payload, 0)


def cmd_classify(args):
    config = field_config(args)
    ws = Workspace(config, _policy(args))
    zeta = parse_zeta(config, args.zeta)
    policy = ws.policy
    degree = policy.start_degree + 1 if args.degree is None else args.degree
    if args.central:
        v = ws.corep(args.central)
        c = fodc.central_element(ws, v, zeta)
        gens = fodc.quantum_lie_from_central(ws, c)
        rows = dual.word_values(gens, degree)
        report = fodc.classify(ws, rows, f"central c_{zeta}({args.central})",
                               frame_bound=args.frame_bound, basis=gens)
        report.central_label = c.label
    elif args.corep:
        v = ws.corep(args.corep)
        lie = fodc.QuantumLieAlgebra(ws, v, zeta)
        rows = lie.rows(degree)
        report = fodc.classify(ws, rows, f"X_{zeta}({args.corep})",
                               frame_bound=args.frame_bound, basis=lie.basis)
        report.central_label = fodc.central_label(v, zeta)
    else:
        raise UnsupportedConfigError("classify needs --corep or --central")
    payload = json.loads(report.to_json())
    payload["command"] = "classify"
    status = 0 if report.residual_rank == 0 else 1
    return emit(args, payload, status)


def cmd_report(args):
    config = field_config(args)
    ws = Workspace(config, _policy(args))
    zeta = parse_zeta(config, args.zeta)
    v = ws.corep(args.corep)
    lie = fodc.quantum_lie(ws, v, zeta)
    ok_coideal, cdeg = lie.coideal_certificate()
    payload = {
        "command": "report",
        "config": str(config),
        "corep": args.corep,
        "zeta": str(zeta),
        "dim": lie.certified_dim,
        "cert_degree": lie.cert_degree,
        "coideal": ok_coideal,
        "coideal_degree": cdeg,
        "r_matrix_yang_baxter": rmat.check_yang_baxter(ws.rdata),
        "braid_min_poly_degree": len(rmat.check_minimal_polynomial(ws.rdata)) - 1,
    }
    return emit(args, payload, 0 if ok_coideal else 1)


def _policy(args):
    return Policy(d_max=args.d_max)


def cmd_verify(args):
    config = field_config(args)
    ws = Workspace(config, _policy(args))
    claim = args.claim
    payload = {"command": "verify", "claim": claim, "config": str(config)}
    try:
        ok, details = VERIFIERS[claim](ws, args)
    except RankUnstableError as exc:
        payload["status"] = "undecided"
        payload["detail"] = str(exc)
        return emit(args, payload, 2)
    payload.update(details)
    payload["status"] = "pass" if ok else "fail"
    return emit(args, payload, 0 if ok else 1)


def _verify_minor_tau(ws, args):
    degree = 4 if args.degree is None else args.degree
    config = ws.config
    ks = range(1, config.rank + 1) if config.series == "A" else (1,)
    results = {}
    ok = True
    for k in ks:
        v = ws.corep("u" if k == 1 else f"minor:{k}")
        l_D = ws.l_entry(v, 0, 0)
        tau = ws.tau_functional(YoungWeight.fundamental(k))
        eq, deg = ws.functional_equal(l_D, tau, degree)
        results[f"k={k}"] = {"equal": eq, "cert_degree": deg}
        ok = ok and eq
    return ok, {"results": results, "degree": degree}


def _verify_centrality(ws, args):
    zeta = parse_zeta(ws.config, args.zeta)
    degree = 3 if args.degree is None else args.degree
    v = ws.corep(args.corep)
    c = fodc.central_element(ws, v, zeta)
    central = fodc.is_central(ws, c, degree)
    pe = c - ws.eps_functional().scaled(c.value_at_unit())
    row = pe.word_values(degree)
    lie = fodc.QuantumLieAlgebra(ws, v, zeta)
    in_span = linalg.in_row_space(linalg.echelon(lie.rows(degree)), row)
    nonzero = bool(row)
    ok = central and nonzero and in_span
    return ok, {
        "central": central,
        "p_eps_nonzero": nonzero,
        "in_lie_span": in_span,
        "degree": degree,
        "zeta": str(zeta),
    }


def _verify_tensor_identity(ws, args):
    degree = 3 if args.degree is None else args.degree
    u = ws.corep("u")
    ok, deg = fodc.tensor_identity_check(ws, u, u, degree)
    return ok, {"degree": deg}


def _verify_coideal(ws, args):
    zeta = parse_zeta(ws.config, args.zeta)
    degree = 3 if args.degree is None else args.degree
    v = ws.corep(args.corep)
    lie = fodc.QuantumLieAlgebra(ws, v, zeta)
    ok, deg = lie.coideal_certificate(degree)
    return ok, {"degree": deg, "zeta": str(zeta), "corep": args.corep}


def _verify_leibniz(ws, args):
    zeta = parse_zeta(ws.config, args.zeta)
    v = ws.corep(args.corep)
    cal = fodc.Calculus(ws, v, zeta)
    rng = random.Random(0)
    words = dual.all_words(ws.N, 2)
    checked = 0
    for _ in range(20):
        a = CoordElem.from_word(rng.choice(words))
        b = CoordElem.from_word(rng.choice(words))
        defect = cal.leibniz_defect(a, b)
        for coeff in defect.values():
            eq, _ = ws.separated_equal(coeff, CoordElem(), length=2)
            if not eq:
                return False, {"pairs": checked, "zeta": str(zeta)}
        checked += 1
    return True, {"pairs": checked, "zeta": str(zeta)}


def _verify_factorizability(ws, args):
    degree = 2 if args.degree is None else args.degree
    words = dual.all_words(ws.N, degree)
    gram = []
    for wi in words:
        a = CoordElem.from_word(wi)
        row = {}
        for wj in words:
            v = ws.q_form(a, CoordElem.from_word(wj))
            if not v.is_zero():
                row[wj] = v
        gram.append(row)
    got = linalg.rank(gram)
    want = peter_weyl_rank(ws.config, degree)
    return got == want, {"rank": got, "peter_weyl_oracle": want, "degree": degree}


def _verify_direct_sum(ws, args):
    zeta = parse_zeta(ws.config, args.zeta)
    u = ws.corep("u")
    triv = ws.corep("1")
    cal_u = fodc.Calculus(ws, u, zeta)
    cal_1 = fodc.Calculus(ws, triv, zeta)
    try:
        cert = fodc.direct_sum_calculi([cal_1, cal_u])
    except fodc.NotDirectError as exc:
        return False, {"detail": str(exc)}
    lie_sum = fodc.quantum_lie(ws, ws.corep("dsum(1,u)"), zeta)
    ok = cert.direct and lie_sum.certified_dim == cert.total
    return ok, {
        "dims": cert.dims,
        "total": cert.total,
        "dsum_corep_dim": lie_sum.certified_dim,
        "zeta": str(zeta),
    }


def _verify_central_generates(ws, args):
    zeta = parse_zeta(ws.config, args.zeta)
    degree = 3 if args.degree is None else args.degree
    v = ws.corep(args.corep)
    c = fodc.central_element(ws, v, zeta)
    gens = fodc.quantum_lie_from_central(ws, c)
    rows_c = dual.word_values(gens, degree)
    lie = fodc.QuantumLieAlgebra(ws, v, zeta)
    (ra, rb), rab = linalg.span_ranks(rows_c, lie.rows(degree))
    ok = ra == rb == rab
    return ok, {"rank_central": ra, "rank_lie": rb, "rank_union": rab, "degree": degree}


VERIFIERS = {
    "minor-tau": _verify_minor_tau,
    "centrality": _verify_centrality,
    "tensor-identity": _verify_tensor_identity,
    "coideal": _verify_coideal,
    "leibniz": _verify_leibniz,
    "factorizability": _verify_factorizability,
    "direct-sum": _verify_direct_sum,
    "central-generates": _verify_central_generates,
}


def _fold_zeta(argv):
    """Join `--zeta -i` into `--zeta=-i`: argparse would read a separate
    `-i` as an option and leave --zeta (or an abbreviation of it, such as
    --ze) without its value."""
    out = []
    for a in argv:
        if (out and len(out[-1]) > 2 and "--zeta".startswith(out[-1])
                and a.startswith("-") and not a.startswith("--")):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv=None):
    parser = make_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_fold_zeta(argv))
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        if args.command == "build":
            return cmd_build(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "report":
            return cmd_report(args)
    except FAILURES as exc:
        sys.stderr.write(f"fail: {exc}\n")
        return 1
    except (InvalidCharacterError, UnsupportedConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except RankUnstableError as exc:
        sys.stderr.write(f"undecided: {exc}\n")
        return 2
    return 3


if __name__ == "__main__":
    sys.exit(main())
