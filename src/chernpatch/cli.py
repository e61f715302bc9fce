"""Command-line front end: suite runner and small computations.

Subcommands: verify, curvature, dual.  All results are printed as
UTF-8 JSON to stdout or written to --out.  Exit codes: 0 all checks pass,
1 a check failed, 2 usage or configuration error.
"""

import argparse
import inspect
import json
import re
import sys

import numpy as np

from . import connections, hcrepr, liecore, schubert, suites
from .errors import ChernpatchError, PreconditionFailed

__all__ = ["main"]


def _load_group(token):
    if token in ("sp2", "sp4", "sp6"):
        return liecore.sp2nR(int(token[2]) // 2)
    raise PreconditionFailed(f"unknown group {token!r}")


def _emit(report, out):
    text = suites.render_report(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _parse_monomial(text):
    """'c1^2*c2' -> {1: 2, 2: 1}."""
    mono = {}
    for part in text.split("*"):
        m = re.fullmatch(r"\s*c(\d+)(?:\^(\d+))?\s*", part)
        if not m:
            raise PreconditionFailed(f"bad monomial factor {part!r}")
        i = int(m.group(1))
        mono[i] = mono.get(i, 0) + int(m.group(2) or 1)
    return mono


# subcommand implementations --------------------------------------------


def _cmd_verify(args):
    # options only some suites read: each goes to the suites that take it
    optional = {}
    if args.tol is not None:
        if not 0.0 <= args.tol < np.inf:
            raise PreconditionFailed(
                f"--tol must be finite and at least 0, got {args.tol}")
        optional["tol"] = args.tol
    if args.samples is not None:
        if args.samples < 1:
            raise PreconditionFailed(
                f"--samples must be at least 1, got {args.samples}")
        optional["samples"] = args.samples
    if args.model:
        optional["model"] = args.model
    if args.corrupt:
        optional["corrupt"] = True
    readers = {key: {name for name in args.suite
                     if key in inspect.signature(suites.SUITES[name]).parameters}
               for key in optional}
    for key, names in readers.items():
        if not names:
            raise PreconditionFailed(
                f"--{key} is read by none of the requested suites")
    if args.model:
        with open(args.model, encoding="utf-8") as fh:
            optional["model"] = suites.model_from_dict(json.load(fh))

    reports = []
    for name in args.suite:
        kw = {key: val for key, val in optional.items() if name in readers[key]}
        reports.append(suites.run_suite(name, seed=args.seed, **kw))
    report = reports[0] if len(reports) == 1 else {
        "schema": suites.SCHEMA, "suites": reports,
        "pass": all(r["pass"] for r in reports)}
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_curvature(args):
    spec = _load_group(args.group)
    rep = hcrepr.builtin_representation(spec, args.rep)
    conn = connections.nomizu_connection(spec, rep)
    pb = np.array(connections.p_basis(spec))
    i, j = np.triu_indices(len(pb), 1)
    table = [{"pair": [int(a), int(b)],
              "value": [[[float(v.real), float(v.imag)] for v in row]
                        for row in val]}
             for a, b, val in zip(i, j, conn.curvature0(pb))]
    report = {"schema": suites.SCHEMA, "command": "curvature",
              "group": args.group, "rep": args.rep,
              "connection": "nomizu", "p_basis_size": len(pb),
              "curvature": table, "pass": True}
    _emit(report, args.out)
    return 0


def _cmd_dual(args):
    mono = _parse_monomial(args.monomial)
    value = schubert.chern_number(args.space, args.bundle, mono)
    if value.denominator != 1:
        raise PreconditionFailed(f"{args.monomial} of {args.bundle} on "
                                 f"{args.space} is {value}, not an integer")
    report = {"schema": suites.SCHEMA, "command": "dual",
              "space": args.space, "bundle": args.bundle,
              "monomial": args.monomial, "value": int(value), "pass": True}
    _emit(report, args.out)
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="chernpatch",
        description="verification suites and Chern-class computations")
    ap.add_argument("--out", help="write the JSON report to this file")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run named verification suites")
    v.add_argument("suite", nargs="+", choices=sorted(suites.SUITES))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--samples", type=int, default=None)
    v.add_argument("--model", help="flag-model JSON for partition/vanishing")
    v.add_argument("--corrupt", action="store_true",
                   help="run the negative control of the " + ", ".join(
                       name for name in sorted(suites.SUITES) if "corrupt"
                       in inspect.signature(suites.SUITES[name]).parameters)
                   + " suites")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("curvature", help="algebraic curvature table")
    c.add_argument("--group", required=True,
                   help="sp2, sp4 or sp6: Sp(2n, R) for n = 1, 2, 3")
    c.add_argument("--rep", required=True,
                   help='std, sym2, det^b, sym^a or "sym^a det^b" (a <= 6)')
    c.set_defaults(func=_cmd_curvature)

    d = sub.add_parser("dual", help="Chern numbers of compact duals")
    d.add_argument("--space", required=True,
                   help="p:n, gr:k,n or lg:n (the Lagrangian LG(n, 2n))")
    d.add_argument("--bundle", default="tangent")
    d.add_argument("--monomial", required=True)
    d.set_defaults(func=_cmd_dual)
    return ap


def main(argv=None):
    ap = _build_parser()
    # argparse reads -1e-300 or -inf as an option: attached, it is a value
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--tol" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--tol={argv[i + 1]}"]
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ChernpatchError, OSError, json.JSONDecodeError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
