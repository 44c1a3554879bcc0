"""The benchmark's workloads and the exact-output gate behind them.

Each workload is a fixed, deterministic grid driven through the package's
public functions from one process, one batch at a time (a closed loop with
one caller).  ``calls`` is the timed region; ``check`` turns its result into
verdict counts, the amount of work examined and sha256 digests of a
canonical serialization; ``extra`` adds digests that are taken once per run,
outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from bhkovacic import auxode, cli, evidence, hautot

CLOSED_FORM_CHECK_L = range(2, 9)  # degrees 9..1681
CLOSED_FORM_EXPANSION_L = range(2, 8)
BASES = ("kummer", "laguerre")
CROSS_CHECK_FIELDS = (
    "family", "l", "d", "recurrence_det", "bareiss_det", "agree", "nullspace_dim"
)
# the bytes behind the ROADMAP's "evidence --out unchanged" gate
EVIDENCE_OUT_GRID = {"l_max": 6, "d_max": 100}


@dataclass
class Outcome:
    attempted: int  # verdicts examined
    failed: int  # verdicts that came out false
    work: dict  # how much was examined, compared with the pinned amounts
    digests: dict  # name -> sha256 of the canonical output


def canon(value):
    """A serialization of exact values that does not depend on the program's own.

    Integers of every size become decimal strings and rationals "p/q", so a
    digest moves only when a value does.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    text = json.dumps(canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- scan: the acceptance-scale determinant-sign grid -------------------------
# Big-integer two-term recurrences (D_n up to 8,310 bits) and the elimination
# cross-checks; the Fraction Poly kernel is never used.


def scan_calls():
    return evidence.scan()


def scan_check(report) -> Outcome:
    bad_checks = sum(
        1 for c in report.cross_checks if not c["agree"] or c["nullspace_dim"] not in (0, None)
    )
    body = {
        "families": report.families,
        "l_max": report.l_max,
        "d_max": report.d_max,
        "cells": report.cells,
        "final_sign_violations": report.final_sign_violations,
        "flagged": report.flagged,
        "flagged_count": report.flagged_count,
        "flags_resolved_nonzero": report.flags_resolved_nonzero,
        "cross_checks": [[c[k] for k in CROSS_CHECK_FIELDS] for c in report.cross_checks],
        "cross_checks_ok": report.cross_checks_ok,
    }
    return Outcome(
        attempted=report.cells + len(report.cross_checks),
        failed=len(report.final_sign_violations) + bad_checks,
        work={"cells": report.cells, "cross_checks": len(report.cross_checks)},
        digests={"scan_report": digest(body)},
    )


# --- closed_form: dense Fraction polynomials ----------------------------------
# Coefficients up to 11,588 bits in algebra, auxode and hautot; the scan
# engine never runs.


def closed_form_calls():
    records = [auxode.chandrasekhar_checks(l) for l in CLOSED_FORM_CHECK_L]
    expansions = [
        hautot.extended_expansion(l, basis) for l in CLOSED_FORM_EXPANSION_L for basis in BASES
    ]
    return records, expansions


def closed_form_check(result) -> Outcome:
    records, expansions = result
    record_rows = [
        [
            r.l,
            r.s,
            r.degree,
            r.recurrence_ok,
            r.ode_residual_ok,
            r.integral_identity_ok,
            r.sign_pattern_ok,
        ]
        for r in records
    ]
    expansion_rows = [[e.basis, e.l, e.s, e.coefficients, e.equal] for e in expansions]
    return Outcome(
        attempted=len(records) + len(expansions),
        failed=sum(not r.all_ok for r in records) + sum(not e.equal for e in expansions),
        work={"records": len(records), "expansions": len(expansions)},
        digests={
            "checks": digest(record_rows),
            "expansions": digest(expansion_rows),
        },
    )


def closed_form_extra(workdir) -> dict:
    coeffs = [auxode.chandrasekhar_coeffs(l).coeffs for l in CLOSED_FORM_CHECK_L]
    return {"coeffs": digest(coeffs)}


# --- verify_all: the user-facing battery --------------------------------------
# Many small calls across all nine modules: the small-input side of every
# kernel change, and where per-call or start-up overhead shows first.


def verify_all_calls():
    report = cli.run_verify_all()
    return report, report.to_json()


def verify_all_check(result) -> Outcome:
    report, text = result
    return Outcome(
        attempted=len(report.records),
        failed=sum(not r.passed for r in report.records),
        work={"records": len(report.records)},
        digests={"report_json": hashlib.sha256(text.encode()).hexdigest()},
    )


def verify_all_extra(workdir) -> dict:
    path = os.path.join(workdir, "evidence_out.json")
    evidence.scan(out=path, **EVIDENCE_OUT_GRID)
    with open(path, "rb") as handle:
        return {"evidence_out": hashlib.sha256(handle.read()).hexdigest()}


@dataclass(frozen=True)
class Workload:
    calls: Callable[[], object]
    check: Callable[[object], Outcome]
    extra: Optional[Callable[[str], dict]] = None


WORKLOADS = {
    "scan": Workload(scan_calls, scan_check),
    "closed_form": Workload(closed_form_calls, closed_form_check, closed_form_extra),
    "verify_all": Workload(verify_all_calls, verify_all_check, verify_all_extra),
}


def gate(outcomes: list, extra: dict, expected: dict) -> dict:
    """Fold the outcomes of a run into the verdict the benchmark reports.

    A run is correct when no verdict failed, every digest equals the pinned
    one, and every batch examined exactly the pinned amount of work; a run
    that examined nothing cannot pass.
    """
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    seen = [o.digests for o in outcomes] + [extra]
    pinned = expected["digests"]
    names = set().union(*seen)
    mismatch = names != set(pinned) or any(
        d[name] != pinned[name] for d in seen for name in d
    )
    work_ok = bool(outcomes) and all(o.work == expected["work"] for o in outcomes)
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "output_mismatch": int(mismatch),
        "work_ok": work_ok,
        "correct": attempted > 0 and failed == 0 and not mismatch and work_ok,
    }
