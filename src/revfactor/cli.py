"""Command line front end.

Verbs::

    compose A.map B.map        print the composition A then B applied
    invert A.map               print the compositional inverse
    conjugate A.map K.map      print K^-1 o A o K
    normalize A.map            print the normal form (--conjugator FILE
                               saves the tangent-to-identity conjugator)
    split A.map                print the base map of a paired-centralizer
                               element (--kernel FILE saves the kernel part)
    factor --mode M A.map      factor into reversible maps or involutions
                               and write a certificate (default A.cert.json)
    verify CERT.json           replay every check in a certificate
    bounds                     print the factor-count table (--n, --mode,
                               --format table|json)
    table1                     the standard reversible table up to n = 16

All map-reading verbs work at a fixed truncation degree (default 6).
``--truncation`` lowers it by re-truncating the inputs; asking for a
degree above what an input carries is refused, since the file does not
claim that much.  ``verify`` defaults to the certificate's own degree.

Exit codes: 0 success, 1 a verification check failed, 2 malformed or
inconsistent input, 3 a mathematical obstruction was reported, 4 an
internal error (a bug in revfactor, not a verdict on the input).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .bounds import compute_bounds, compute_involution_bounds, table_text
from .factor import (
    CertificateError,
    FactorObstruction,
    certificate,
    factor_budget,
    factor_dim1_involutions,
    factor_dim1_reversibles,
    factor_involutions,
    factor_reversibles,
    format_certificate,
    parse_certificate,
    verify_certificate,
)
from .maps import FormalMap, conjugate, format_map, map_compose, map_invert, parse_map
from .normalform import poincare_dulac
from .scalars import (
    ONE,
    ScalarFormatError,
    ScalarTooLargeError,
    TextFormatError,
    parse_scalar,
)
from .series import TruncationMismatch
from .structure import ShapeError, split_centralizer

DEFAULT_TRUNCATION = 6

OK = 0
VERIFY_FAILED = 1
INPUT_ERROR = 2
OBSTRUCTION = 3
INTERNAL_ERROR = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(INPUT_ERROR, f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(
            INPUT_ERROR, f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def _load_map(path: str, degree: int) -> FormalMap:
    if degree < 1:
        raise CliError(INPUT_ERROR, f"truncation degree must be positive, got {degree}")
    text = _read_text(path)
    try:
        F = parse_map(text)
    except TextFormatError as exc:
        line, col = exc.line_col(text)
        raise CliError(INPUT_ERROR, f"{path}:{line}:{col}: {exc}") from None
    if degree > F.trunc:
        raise CliError(
            INPUT_ERROR,
            f"{path} carries degree {F.trunc}; cannot work at degree {degree}",
        )
    if degree < F.trunc:
        F = F.truncate(degree)
    return F


def _parse_seeds(text):
    if not text:
        return None
    try:
        return tuple(
            parse_scalar(tok) for tok in text.split(",") if tok.strip()
        )
    except ScalarFormatError as exc:
        raise CliError(INPUT_ERROR, f"bad seed list: {exc}") from None


# ---------------------------------------------------------------------------
# verbs


def _cmd_compose(args):
    F = _load_map(args.first, args.truncation)
    G = _load_map(args.second, args.truncation)
    try:
        print(format_map(map_compose(F, G)))
    except TruncationMismatch as exc:
        raise CliError(INPUT_ERROR, str(exc)) from None
    return OK


def _cmd_invert(args):
    F = _load_map(args.map, args.truncation)
    try:
        print(format_map(map_invert(F)))
    except ZeroDivisionError as exc:
        raise CliError(INPUT_ERROR, str(exc)) from None
    return OK


def _cmd_conjugate(args):
    F = _load_map(args.map, args.truncation)
    K = _load_map(args.conjugator, args.truncation)
    try:
        print(format_map(conjugate(F, K)))
    except (TruncationMismatch, ZeroDivisionError) as exc:
        raise CliError(INPUT_ERROR, str(exc)) from None
    return OK


def _cmd_normalize(args):
    F = _load_map(args.map, args.truncation)
    try:
        G, K, _ = poincare_dulac(F)
    except ValueError as exc:
        raise CliError(INPUT_ERROR, str(exc)) from None
    print(format_map(G))
    if args.conjugator:
        Path(args.conjugator).write_text(format_map(K) + "\n")
    return OK


def _cmd_split(args):
    F = _load_map(args.map, args.truncation)
    try:
        chi, Phi = split_centralizer(F)
    except ShapeError as exc:
        print(f"not a paired-centralizer element: {exc}", file=sys.stderr)
        return OBSTRUCTION
    except ValueError as exc:
        # a map in one variable has no pairing structure to split along
        raise CliError(INPUT_ERROR, str(exc)) from None
    print(format_map(chi))
    if args.kernel:
        Path(args.kernel).write_text(format_map(Phi) + "\n")
    return OK


def _cmd_factor(args):
    F = _load_map(args.map, args.truncation)
    seeds = _parse_seeds(args.seeds)
    try:
        if F.nvars == 1:
            if args.mode == "reversible":
                fz = factor_dim1_reversibles(F, seeds=seeds)
            else:
                fz = factor_dim1_involutions(F)
        elif args.mode == "reversible":
            fz = factor_reversibles(F)
        else:
            fz = factor_involutions(F)
    except FactorObstruction as exc:
        print("obstruction: " + exc.message, file=sys.stderr)
        if exc.obstruction is not None:
            print("  " + exc.obstruction.equation(), file=sys.stderr)
        for step in exc.trace:
            print("  after: " + step, file=sys.stderr)
        return OBSTRUCTION
    except (ValueError, ShapeError) as exc:
        raise CliError(INPUT_ERROR, str(exc)) from None
    out = Path(args.out) if args.out else Path(args.map).with_suffix(".cert.json")
    out.write_text(format_certificate(certificate(fz)))
    det_minus = F.linear_part().det() == -ONE
    budget = factor_budget(F.nvars, fz.mode, det_minus)
    print(f"factors: {len(fz.factors)} (budget {budget}, mode {fz.mode})")
    print(f"certificate: {out}")
    return OK


def _cmd_verify(args):
    text = _read_text(args.certificate)
    try:
        cert = parse_certificate(text)
        report = verify_certificate(cert, degree=args.truncation)
    except CertificateError as exc:
        raise CliError(INPUT_ERROR, str(exc)) from None
    print(report.as_text())
    return OK if report.ok else VERIFY_FAILED


def _cmd_bounds(args):
    if args.mode == "involutive":
        table = compute_involution_bounds(args.n)
    else:
        table = compute_bounds(args.n)
    print(table.as_text() if args.format == "table" else table.as_json())
    return OK


def _cmd_table1(args):
    print(table_text(16))
    return OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="revfactor",
        description="factor formal self-maps into reversible or involutive pieces",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def trunc_flag(sp, default=DEFAULT_TRUNCATION):
        sp.add_argument(
            "--truncation",
            type=int,
            default=default,
            metavar="N",
            help="working truncation degree (default %(default)s)",
        )

    sp = sub.add_parser("compose", help="compose two maps")
    sp.add_argument("first")
    sp.add_argument("second")
    trunc_flag(sp)
    sp.set_defaults(run=_cmd_compose)

    sp = sub.add_parser("invert", help="invert a map")
    sp.add_argument("map")
    trunc_flag(sp)
    sp.set_defaults(run=_cmd_invert)

    sp = sub.add_parser("conjugate", help="conjugate a map by another")
    sp.add_argument("map")
    sp.add_argument("conjugator")
    trunc_flag(sp)
    sp.set_defaults(run=_cmd_conjugate)

    sp = sub.add_parser("normalize", help="normal form for a diagonal linear part")
    sp.add_argument("map")
    sp.add_argument("--conjugator", metavar="FILE", help="also save the conjugator")
    trunc_flag(sp)
    sp.set_defaults(run=_cmd_normalize)

    sp = sub.add_parser("split", help="base/kernel split of a centralizer element")
    sp.add_argument("map")
    sp.add_argument("--kernel", metavar="FILE", help="also save the kernel part")
    trunc_flag(sp)
    sp.set_defaults(run=_cmd_split)

    sp = sub.add_parser("factor", help="factor a map and write a certificate")
    sp.add_argument("map")
    sp.add_argument(
        "--mode",
        choices=("reversible", "involutive"),
        default="reversible",
        help="kind of factors to produce (default %(default)s)",
    )
    sp.add_argument("--out", metavar="FILE", help="certificate path")
    sp.add_argument(
        "--seeds",
        metavar="LIST",
        help="comma-separated scalar seeds for the one-variable reverser search",
    )
    trunc_flag(sp)
    sp.set_defaults(run=_cmd_factor)

    sp = sub.add_parser("verify", help="replay a certificate's checks")
    sp.add_argument("certificate")
    trunc_flag(sp, default=None)
    sp.set_defaults(run=_cmd_verify)

    sp = sub.add_parser("bounds", help="print the factor-count table")
    sp.add_argument("--n", type=int, default=16, help="largest dimension (default 16)")
    sp.add_argument(
        "--mode",
        choices=("reversible", "involutive"),
        default="reversible",
        help="which table (default %(default)s)",
    )
    sp.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default %(default)s)",
    )
    sp.set_defaults(run=_cmd_bounds)

    sp = sub.add_parser("table1", help="the reversible table up to n = 16")
    sp.set_defaults(run=_cmd_table1)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ScalarTooLargeError as exc:
        # the result is exact but could not be read back as text
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        # a bug, not a verdict on the input: report where it was raised and
        # never exit 1, which would read as a failed verification
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc}"
            f" (raised at {Path(where.filename).name}:{where.lineno})",
            file=sys.stderr,
        )
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
