"""Command-line front end: suite runner and small computations.

Subcommands: verify, curvature, chern, dual.  All results are printed as
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
from .errors import PreconditionFailed

__all__ = ["main", "compute_report"]

_GROUPS = {
    "su11": lambda: liecore.su_pq(1, 1),
    "sp4": lambda: liecore.sp2nR(2),
    "sp6": lambda: liecore.sp2nR(3),
    "su2": liecore.su2,
}


def _load_group(token):
    if token in _GROUPS:
        return _GROUPS[token]()
    if token.endswith(".json"):
        with open(token, encoding="utf-8") as fh:
            return suites.spec_from_dict(json.load(fh))
    if token.lstrip().startswith("{"):
        return suites.spec_from_dict(json.loads(token))
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
    kwargs = {"seed": args.seed}
    if args.tol is not None:
        kwargs["tol"] = args.tol
    if args.samples is not None:
        kwargs["samples"] = args.samples
    # options only some suites read: each goes to the suites that take it
    optional = {}
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
        kw = dict(kwargs)
        kw.update((key, val) for key, val in optional.items()
                  if name in readers[key])
        reports.append(suites.run_suite(name, **kw))
    report = reports[0] if len(reports) == 1 else {
        "schema": suites.SCHEMA, "suites": reports,
        "pass": all(r["pass"] for r in reports)}
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_curvature(args):
    spec = _load_group(args.group)
    rep = hcrepr.builtin_representation(spec, args.rep)
    if args.connection == "nomizu":
        conn = connections.nomizu_connection(spec, rep)
    else:
        raise PreconditionFailed(f"unknown connection {args.connection!r}")
    pb = connections.p_basis(spec)
    table = []
    for i in range(len(pb)):
        for j in range(i + 1, len(pb)):
            val = conn.curvature0(pb[i], pb[j])
            table.append({
                "pair": [i, j],
                "value": [[[float(v.real), float(v.imag)] for v in row]
                          for row in np.atleast_2d(val)]})
    report = {"schema": suites.SCHEMA, "command": "curvature",
              "group": args.group, "rep": args.rep,
              "connection": args.connection, "p_basis_size": len(pb),
              "curvature": table, "pass": True}
    _emit(report, args.out)
    return 0


def _cmd_chern(args):
    if args.check == "pifiber":
        report = suites.run_suite("pifiber", seed=args.seed,
                                  tol=args.tol or 1e-6,
                                  samples=args.samples or 10)
    elif args.check == "patched":
        report = suites.run_suite("patched", seed=args.seed,
                                  tol=args.tol or 1e-10,
                                  samples=args.samples or 20)
    elif args.check == "quadrature":
        report = suites.run_suite("quadrature", seed=args.seed,
                                  tol=args.tol or 1e-3,
                                  samples=args.samples or 160)
    else:
        raise PreconditionFailed(f"unknown check {args.check!r}")
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_dual(args):
    mono = _parse_monomial(args.monomial)
    value = schubert.chern_number(args.space, args.bundle, mono)
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
                   help="inject a non-commuting pair into the springer suite")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("curvature", help="algebraic curvature table")
    c.add_argument("--group", required=True)
    c.add_argument("--connection", default="nomizu")
    c.add_argument("--rep", required=True)
    c.set_defaults(func=_cmd_curvature)

    ch = sub.add_parser("chern", help="geometric-model checks")
    ch.add_argument("--check", required=True,
                    choices=["pifiber", "patched", "quadrature"])
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--tol", type=float, default=None)
    ch.add_argument("--samples", type=int, default=None)
    ch.set_defaults(func=_cmd_chern)

    d = sub.add_parser("dual", help="Chern numbers of compact duals")
    d.add_argument("--space", required=True)
    d.add_argument("--bundle", default="tangent")
    d.add_argument("--monomial", required=True)
    d.set_defaults(func=_cmd_dual)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PreconditionFailed, OSError, json.JSONDecodeError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
