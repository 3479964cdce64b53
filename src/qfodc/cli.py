"""Command-line front end: build, verify, classify and report, with exact
scalars end to end.

Exit status: 0 pass, 1 fail (a failed claim or certificate), 2 undecided
(rank did not stabilize), 3 configuration or usage error.  Identical
invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dual, fodc, rmat
from .coordalg import NotInvariantError
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
    v.add_argument("--claim", choices=tuple(fodc.CLAIMS), required=True)
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

def cmd_build(args, ws, zeta):
    v = ws.corep(args.corep)
    lie = fodc.quantum_lie(ws, v, zeta)
    payload = {
        "command": "build",
        "config": str(ws.config),
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


def cmd_classify(args, ws, zeta):
    degree = args.degree or ws.policy.start_degree + 1
    if args.central:
        v = ws.corep(args.central)
        basis, rows = fodc.central_span(ws, v, zeta, degree)
        descriptor = f"central c_{zeta}({args.central})"
    elif args.corep:
        v = ws.corep(args.corep)
        lie = fodc.QuantumLieAlgebra(ws, v, zeta)
        basis, rows = lie.basis, lie.rows(degree)
        descriptor = f"X_{zeta}({args.corep})"
    else:
        raise UnsupportedConfigError("classify needs --corep or --central")
    report = fodc.classify(ws, rows, descriptor, degree=degree,
                           frame_bound=args.frame_bound, basis=basis)
    report.central_label = fodc.central_label(v, zeta)
    payload = json.loads(report.to_json())
    payload["command"] = "classify"
    return emit(args, payload, 0 if report.residual_rank == 0 else 1)


def cmd_report(args, ws, zeta):
    lie = fodc.quantum_lie(ws, ws.corep(args.corep), zeta)
    ok_coideal, cdeg = lie.coideal_certificate()
    payload = {
        "command": "report",
        "config": str(ws.config),
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


def cmd_verify(args, ws, zeta):
    payload = {"command": "verify", "claim": args.claim, "config": str(ws.config)}
    try:
        ok, details = fodc.CLAIMS[args.claim](ws, args.corep, zeta, args.degree)
    except RankUnstableError as exc:
        payload["status"] = "undecided"
        payload["detail"] = str(exc)
        return emit(args, payload, 2)
    payload.update(details)
    payload["status"] = "pass" if ok else "fail"
    return emit(args, payload, 0 if ok else 1)


COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "classify": cmd_classify,
    "report": cmd_report,
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
        config = field_config(args)
        ws = Workspace(config, Policy(d_max=args.d_max))
        zeta = parse_zeta(config, args.zeta)
        return COMMANDS[args.command](args, ws, zeta)
    except FAILURES as exc:
        sys.stderr.write(f"fail: {exc}\n")
        return 1
    except (InvalidCharacterError, UnsupportedConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except RankUnstableError as exc:
        sys.stderr.write(f"undecided: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
