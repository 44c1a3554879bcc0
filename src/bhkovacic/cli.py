"""Command-line front end: reproducible verification runs and reports.

Subcommands
    families    candidate/retained family tables (n=1 or n=2) per kind
    chandra     closed-form polynomial and its verification record
    hautot      extended expansion report in either special-function basis
    evidence    determinant-sign scan over (family, l, d) cells
    verify-all  the whole check battery at configurable bounds

Exit status 0 means every executed check passed; 1 reports a failed
check or a computation that raised; 2 is a usage error: an argument that
the function using it refuses with ``UsageError`` before any work, such
as a scan grid with no cell.
The scan picks its worker processes from its grid and the usable CPUs
(see ``evidence.scan``).
Integers of any size are written in full.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .algebra import Poly, int_to_str, rat_to_str
from .auxode import (
    brute_force_polynomial_solutions,
    chandrasekhar_coeffs,
    chandrasekhar_checks,
    chandrasekhar_r_frame,
    family_equation,
    homotopic_equivalence_check,
)
from .evidence import SCAN_FAMILIES, s3_nonexistence, scan
from .hautot import (
    ObstructionError,
    det_A,
    determinant_equality_check,
    extended_expansion,
    kummer_poly,
    recurrence_identity_suite,
)
from .kovacic import affine_str, enumerate_families_n1, enumerate_families_n2, retain_families
from .master import PerturbationKind, UsageError, special_frequency
from .reporting import Report

_EXPECTED_RETAINED = {
    PerturbationKind.GRAVITATIONAL: {"G3", "G7", "G8"},
    PerturbationKind.ELECTROMAGNETIC: {"E3", "E7"},
    PerturbationKind.SCALAR: {"S3"},
}


def _emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
    elif fmt == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_human())


def _report(args, command: str) -> Report:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func",)
    }
    config["command"] = command
    return Report(tool_version=__version__, config=config)


def _family_row(f) -> dict:
    forms = ("e0", "e2", "einf", "degree")
    return {"label": f.label, **{name: affine_str(getattr(f, name)) for name in forms}}


def cmd_families(args) -> int:
    kind = PerturbationKind.from_name(args.beta)
    report = _report(args, "families")
    if args.n == 1:
        families = enumerate_families_n1(kind)
        retention = retain_families(families)
        retained = set(retention.retained_labels)
        rows = [{**_family_row(f), "retained": f.label in retained} for f in families]
        report.add(
            "families.n1.table",
            retained == _EXPECTED_RETAINED[kind],
            tag="kovacic.step3b",
            witness={"rows": rows, "retained": sorted(retained)},
        )
    else:
        candidates, retained = enumerate_families_n2(kind)
        rows = [_family_row(f) for f in candidates]
        report.add(
            "families.n2.table",
            not retained,
            tag="kovacic.n2.parity",
            witness={"rows": rows, "retained": [f.label for f in retained]},
        )
    _emit(report, args.format)
    if args.format == "human":
        for row in rows:
            flag = ""
            if args.n == 1:
                flag = "  retained" if row["retained"] else ""
            print(
                f"{row['label']:>5}  e0={row['e0']:>8}  e2={row['e2']:>8}  "
                f"einf={row['einf']:>8}  d={row['degree']:>8}{flag}"
            )
    return 0 if report.all_passed else 1


def cmd_chandra(args) -> int:
    report = _report(args, "chandra")
    l = args.l
    P_w = chandrasekhar_coeffs(l)
    P_r = chandrasekhar_r_frame(l, P_w.den, P_w.num[-1])
    record = chandrasekhar_checks(l, P_w)
    witness = {
        "l": l,
        "s": special_frequency(l),
        "w_frame": P_w,
        "r_frame": P_r,
        "verification": record,
    }
    report.add("chandra.verify", record.all_ok, tag="chandra.four_checks", witness=witness)
    _emit(report, args.format)
    if args.format == "human":
        print(f"P(w) degree {P_w.degree}, coefficients low to high:")
        print("  " + ", ".join(rat_to_str(c) for c in P_w.coeffs))
        print(f"P(r) degree {P_r.degree}, coefficients low to high:")
        print("  " + ", ".join(rat_to_str(c) for c in P_r.coeffs))
    return 0 if report.all_passed else 1


def cmd_hautot(args) -> int:
    report = _report(args, "hautot")
    expansion = extended_expansion(args.l, args.basis)
    report.add(
        f"hautot.expansion.{args.basis}",
        expansion.equal,
        tag="hautot.extended_expansion",
        witness={
            "l": expansion.l,
            "s": expansion.s,
            "coefficients": list(expansion.coefficients),
            "equal": expansion.equal,
            "difference": expansion.difference,
        },
    )
    _emit(report, args.format)
    if args.format == "human":
        letter = "A" if args.basis == "kummer" else "B"  # as in extended_expansion
        for k, value in enumerate(expansion.coefficients):
            print(f"  {letter}{k} = {rat_to_str(value)}")
    return 0 if report.all_passed else 1


def cmd_evidence(args) -> int:
    report = _report(args, "evidence")
    families = SCAN_FAMILIES if args.family == "all" else (args.family,)
    result = scan(
        families=families,
        l_max=args.l_max,
        d_max=args.max_degree,
        out=args.out,
    )
    report.add(
        "evidence.scan.final_signs",
        result.all_final_signs_ok,
        tag="evidence.det_sign",
        witness={
            "cells": result.cells,
            "violations": [
                (family, l, d, int_to_str(D_last))
                for family, l, d, D_last in result.final_sign_violations[:16]
            ],
            "flagged_count": result.flagged_count,
            "flags_resolved_nonzero": result.flags_resolved_nonzero,
        },
    )
    report.add(
        "evidence.scan.cross_checks",
        result.cross_checks_ok,
        tag="evidence.bareiss_crosscheck",
        witness={"count": len(result.cross_checks)},
    )
    _emit(report, args.format)
    return 0 if report.all_passed else 1


def _add_first_failure(report: Report, name: str, tag: str, failure) -> None:
    """A record that passes when ``failure`` is None and else names it."""
    witness = None if failure is None else {"first_failure": failure}
    report.add(name, failure is None, tag=tag, witness=witness)


def run_verify_all(l_max: int = 6, d_max: int = 100) -> Report:
    """The full battery at the given bounds; every record is exact.

    ``l_max`` (at least 2, the lowest gravitational multipole) bounds the
    G8, closed-form, det(A), scan and S3 records; ``d_max`` (at least 0)
    bounds the scan.  Family retention always runs to l <= max(l_max, 6);
    the extended expansions stop at l = 6 and the S3 sweep at
    2s <= min(2 l_max, 12).  Bounds below the minima raise UsageError
    before any check runs.
    """
    if l_max < 2 or d_max < 0:
        raise UsageError(
            f"verify-all needs --l-max >= 2 and --max-degree >= 0, not {l_max}, {d_max}"
        )
    report = Report(
        tool_version=__version__, config={"command": "verify-all", "l_max": l_max, "d_max": d_max}
    )

    # family tables and retention, n=1; retention's degree-1 checks of G8
    # at l = 2..max(l_max, 6) also serve the G8 record
    g8_found = {}
    for kind in PerturbationKind:
        families = enumerate_families_n1(kind)
        retention = retain_families(families, l_max=max(l_max, 6))
        for check in retention.marginal:
            if check.family.label == "G8" and check.d == 1:
                g8_found[check.l] = list(check.solutions)
        report.add(
            f"families.n1.{kind.name.lower()}",
            set(retention.retained_labels) == _EXPECTED_RETAINED[kind],
            tag="kovacic.step3b",
            witness=sorted(retention.retained_labels),
        )
        candidates, retained2 = enumerate_families_n2(kind)
        expected_count = {(-3): 9, 0: 9, 1: 3}[kind.beta]
        report.add(
            f"families.n2.{kind.name.lower()}",
            len(candidates) == expected_count and not retained2,
            tag="kovacic.n2.parity",
            witness={"candidates": len(candidates), "retained": len(retained2)},
        )

    # G8 closed-form solutions; a failure names its first l
    g8_failure = None
    for l in range(2, l_max + 1):
        expected_s = special_frequency(l)
        expected_k = Fraction(6, (l + 2) * (l - 1))
        if g8_failure is None and g8_found[l] != [(expected_s, Poly([expected_k, 1]))]:
            g8_failure = {"l": l}
    _add_first_failure(report, "g8.low_degree", "g8.first_order_solution", g8_failure)

    # closed-form polynomial checks and extended expansions, on one P(w) per
    # l; a failure names its first l and checks, or its first (l, basis).
    # The l=2 expansion coefficients are pinned in the report.
    chandra_failure = None
    exp_witness = {"l2_coefficients": {}}
    for l in range(2, l_max + 1):
        P_w = chandrasekhar_coeffs(l)
        record = chandrasekhar_checks(l, P_w)
        if chandra_failure is None and not record.all_ok:
            chandra_failure = {"l": l, "checks": list(record.failed_checks)}
        for basis in ("kummer", "laguerre") if l <= 6 else ():
            expansion = extended_expansion(l, basis, target=P_w)
            if "first_failure" not in exp_witness and not expansion.equal:
                exp_witness["first_failure"] = {"l": l, "basis": basis}
            if l == 2:
                exp_witness["l2_coefficients"][basis] = list(expansion.coefficients)
        if l == 2:
            P_w_l2 = P_w  # the oracle record's P(r) is built from it
    _add_first_failure(report, "chandra.verify", "chandra.four_checks", chandra_failure)

    # Hautot determinant roots; a failure names its first l
    det_failure = None
    for l in range(2, l_max + 1):
        s_star = special_frequency(l)
        poly = det_A(l)
        roots_ok = poly.eval(s_star) == 0 and poly.eval(-s_star) == 0
        roots_ok = roots_ok and poly.eval(s_star + 1) != 0 and poly.eval(s_star - 1) != 0
        if det_failure is None and not roots_ok:
            det_failure = {"l": l}
    _add_first_failure(report, "hautot.det_roots", "hautot.sufficiency_det", det_failure)
    report.add(
        "hautot.expansions",
        "first_failure" not in exp_witness,
        tag="hautot.extended_expansion",
        witness=exp_witness,
    )

    # obstruction behaviour and identities at s = 4; a failure names the
    # obstruction check or the first failing identity
    try:
        kummer_poly(9, -7)
        obstruction_ok = False
    except ObstructionError:
        obstruction_ok = True
    try:
        kummer_poly(8, -7)
    except ObstructionError:
        pass
    else:
        obstruction_ok = False
    identities = recurrence_identity_suite(Fraction(4), bound=3)
    if not obstruction_ok:
        identity_failure = {"check": "obstruction"}
    elif not identities:  # a suite that checked nothing has not passed
        identity_failure = {"check": "identities", "count": 0}
    else:
        identity_failure = next(
            ({"name": r.name, "params": r.params} for r in identities if not r.ok), None
        )
    _add_first_failure(
        report, "hautot.obstruction_and_identities", "hautot.phi_replacement", identity_failure
    )

    # oracle agreement; a failure names its first case and its (l, s)
    oracle_failure = None
    s_star = special_frequency(2)
    basis = brute_force_polynomial_solutions(family_equation("G7").at(2, s_star), 9)
    target = chandrasekhar_r_frame(2, P_w_l2.den, P_w_l2.num[-1])
    if not (len(basis) == 1 and basis[0] * target.leading() == target * basis[0].leading()):
        oracle_failure = {"family": "G7", "l": 2, "s": s_star}
    e7 = family_equation("E7")
    for l, s in ((1, 1), (1, 2), (2, 1), (2, 3)):
        if oracle_failure is None and brute_force_polynomial_solutions(e7.at(l, s), 2 * s):
            oracle_failure = {"family": "E7", "l": l, "s": Fraction(s)}
    _add_first_failure(report, "oracle.agreement", "oracle.bareiss_nullspace", oracle_failure)

    # determinant-sign scan at the configured bounds
    result = scan(l_max=l_max, d_max=d_max)
    scan_ok = (
        result.cells > 0
        and result.all_final_signs_ok
        and result.cross_checks_ok
        and result.flags_resolved_nonzero
    )
    scan_witness = {"cells": result.cells, "flagged": result.flagged_count}
    if not scan_ok:
        scan_witness["first_failure"] = result.first_failure
    report.add("evidence.scan", scan_ok, tag="evidence.det_sign", witness=scan_witness)

    # S3 non-existence
    s3 = s3_nonexistence(two_s_max=min(2 * l_max, 12), l_max=l_max)
    report.add(
        "s3.nonexistence",
        s3.all_ok,
        tag="s3.ratio_and_oracle",
        witness={
            "ratio_solution_set": list(s3.matched_ratio_solution_set),
            "oracle_cells": s3.oracle_cells,
        },
    )

    # homotopic equivalences and determinant equality; a failure names its
    # first failed check, or its first j
    homotopy = homotopic_equivalence_check()
    homotopy_failure = None
    if not homotopy.parameter_maps_ok:
        homotopy_failure = {"check": "parameter_maps"}
    elif not homotopy.operator_identities_ok:
        homotopy_failure = {"check": "operator_identities"}
    _add_first_failure(report, "homotopy.z_power", "heun.homotopic_substitution", homotopy_failure)
    eq_failure = next(
        ({"j": j} for j in range(0, 4) if not determinant_equality_check(j).all_ok), None
    )
    _add_first_failure(report, "hautot.det_equality", "hautot.block_equality", eq_failure)
    return report


def cmd_verify_all(args) -> int:
    report = run_verify_all(l_max=args.l_max, d_max=args.max_degree)
    _emit(report, args.format)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhk",
        description="exact verification of Liouvillian solutions of the "
        "Schwarzschild perturbation master equation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("human", "json", "csv"), default="human"
        )
        p.add_argument(
            "--json",
            dest="format",
            action="store_const",
            const="json",
            help="shorthand for --format json",
        )

    p = sub.add_parser("families", help="Kovacic candidate family tables")
    p.add_argument("--beta", default="gravitational", help="gravitational|em|scalar")
    p.add_argument("--n", type=int, choices=(1, 2), default=1)
    add_format(p)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("chandra", help="closed-form polynomial and checks")
    p.add_argument("--l", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_chandra)

    p = sub.add_parser("hautot", help="extended special-function expansion")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--basis", choices=("kummer", "laguerre"), required=True)
    add_format(p)
    p.set_defaults(func=cmd_hautot)

    p = sub.add_parser("evidence", help="determinant-sign scan")
    p.add_argument("--family", choices=SCAN_FAMILIES + ("all",), default="all")
    p.add_argument("--l-max", type=int, default=20)
    p.add_argument("--max-degree", type=int, default=500)
    p.add_argument("--out", default=None, help="write per-cell JSON records here")
    add_format(p)
    p.set_defaults(func=cmd_evidence)

    p = sub.add_parser("verify-all", help="run the whole battery")
    p.add_argument(
        "--l-max",
        type=int,
        default=6,
        help="at least 2; retention still runs to l <= 6, the expansions "
        "stop at l = 6 and the S3 sweep at 2s <= 12",
    )
    p.add_argument("--max-degree", type=int, default=100, help="at least 0")
    add_format(p)
    p.set_defaults(func=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, ArithmeticError, NotImplementedError, OSError) as exc:
        # a computation that could not finish is a failed run, not a usage error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
