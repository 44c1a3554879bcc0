"""CLI surface: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

import bhkovacic
from bhkovacic.algebra import Poly
from bhkovacic.cli import main
from bhkovacic.master import special_frequency


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_families_scalar_json(capsys):
    code, out, _ = run(capsys, "families", "--beta", "scalar", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    rows = payload["records"][0]["witness"]["rows"]
    assert len(rows) == 4
    retained = [r["label"] for r in rows if r["retained"]]
    assert retained == ["S3"]


def test_families_n2(capsys):
    code, out, _ = run(capsys, "families", "--beta", "em", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["records"][0]["witness"]["rows"]
    assert len(rows) == 9
    assert payload["records"][0]["witness"]["retained"] == []


# sha256 prefixes of the canonical JSON of the records, unchanged since the
# tables took a mode with l and s that they never read
FAMILY_RECORDS = {
    ("gravitational", 1): "345b0da5b3626c0d",
    ("gravitational", 2): "de215704e96ad773",
    ("em", 1): "bf554163e3c99059",
    ("em", 2): "55d521087df21e17",
    ("scalar", 1): "51794cf38312d446",
    ("scalar", 2): "7fcb4d010eedd5ab",
}
RETAINED = {"gravitational": ["G3", "G7", "G8"], "em": ["E3", "E7"], "scalar": ["S3"]}


@pytest.mark.parametrize("beta,n", sorted(FAMILY_RECORDS))
def test_families_depend_on_kind_alone(capsys, beta, n):
    code, out, _ = run(capsys, "families", "--beta", beta, "--n", str(n), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == {"beta": beta, "command": "families", "format": "json", "n": n}
    witness = payload["records"][0]["witness"]
    assert witness["retained"] == (RETAINED[beta] if n == 1 else [])
    records = json.dumps(payload["records"], sort_keys=True).encode()
    assert hashlib.sha256(records).hexdigest()[:16] == FAMILY_RECORDS[beta, n]


@pytest.mark.parametrize("option", (("--l", "3"), ("--s", "1"), ("--s", "1/0")))
def test_families_takes_no_mode(capsys, option):
    with pytest.raises(SystemExit) as err:
        main(["families", "--beta", "em", *option])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_chandra_l2_human(capsys):
    # every call runs the four checks: its one record is their verdict
    code, out, _ = run(capsys, "chandra", "--l", "2")
    assert code == 0
    assert out.startswith("[PASS] chandra.verify (chandra.four_checks)\n")
    assert "-945/16384" in out
    assert "1/16" in out
    assert "-1164765/16384" in out


def test_chandra_verify_json(capsys):
    code, out, _ = run(capsys, "chandra", "--l", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    record = payload["records"][0]["witness"]["verification"]
    assert record["recurrence_ok"] and record["sign_pattern_ok"]
    # the record is written as an object, its fields in order, not as a list
    assert list(record) == [
        "l",
        "s",
        "degree",
        "recurrence_ok",
        "ode_residual_ok",
        "integral_identity_ok",
        "sign_pattern_ok",
    ]


def test_chandra_fails_when_a_check_fails(capsys, monkeypatch):
    # no record passes for having built the polynomial alone, and the
    # old --verify switch is gone
    from bhkovacic import cli

    real = cli.chandrasekhar_checks

    def planted(l, P_w):
        return real(l, P_w)._replace(sign_pattern_ok=False)

    monkeypatch.setattr(cli, "chandrasekhar_checks", planted)
    code, out, _ = run(capsys, "chandra", "--l", "2")
    assert code == 1
    assert out.startswith("[FAIL] chandra.verify")
    with pytest.raises(SystemExit) as err:
        main(["chandra", "--l", "2", "--verify"])
    assert err.value.code == 2


def test_hautot_subcommand(capsys):
    code, out, _ = run(capsys, "hautot", "--l", "2", "--basis", "kummer", "--json")
    assert code == 0
    payload = json.loads(out)
    witness = payload["records"][0]["witness"]
    assert witness["equal"] is True
    assert witness["coefficients"] == ["9/4194304", "-7/4194304", "-945/32768", "-945/32768"]


@pytest.mark.parametrize(
    "basis, lines",
    [
        ("kummer", ["A0 = 9/4194304", "A1 = -7/4194304", "A2 = -945/32768", "A3 = -945/32768"]),
        ("laguerre", ["B0 = 1/4194304", "B1 = -7/4194304", "B2 = 945/32768", "B3 = -135/32768"]),
    ],
)
def test_hautot_human_names_the_basis_coefficients(capsys, basis, lines):
    # A_k for the Kummer basis, B_k for the Laguerre one, as extended_expansion documents
    code, out, _ = run(capsys, "hautot", "--l", "2", "--basis", basis)
    assert code == 0
    assert [line.strip() for line in out.splitlines()[-4:]] == lines


def test_evidence_subcommand(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "evidence",
        "--family",
        "G3",
        "--l-max",
        "3",
        "--max-degree",
        "12",
        "--out",
        str(out_path),
        "--json",
    )
    assert code == 0
    cells = json.loads(out_path.read_text())
    assert len(cells) == 2 * 13
    assert all(cell["final_sign_ok"] for cell in cells)


def test_verify_all_quick(capsys):
    code, out, _ = run(
        capsys, "verify-all", "--l-max", "2", "--max-degree", "12", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    names = [r["name"] for r in payload["records"]]
    assert "s3.nonexistence" in names and "evidence.scan" in names
    # the report carries the pinned l=2 expansion coefficients
    assert "9/4194304" in out and "-945/32768" in out


def test_verify_all_deterministic(capsys):
    _, out1, _ = run(capsys, "verify-all", "--l-max", "2", "--max-degree", "8", "--json")
    _, out2, _ = run(capsys, "verify-all", "--l-max", "2", "--max-degree", "8", "--json")
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run(capsys, "families", "--beta", "scalar", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "name,tag,status,witness"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["families", "--format", "yaml"])
    assert err.value.code == 2


def test_bad_kind_is_usage_error(capsys):
    code, _, err = run(capsys, "families", "--beta", "axion")
    assert code == 2
    assert "unknown perturbation kind" in err


@pytest.mark.parametrize(
    "argv", (("chandra", "--l", "1"), ("hautot", "--l", "0", "--basis", "kummer"))
)
def test_multipole_below_two_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert err == "error: --l must be at least 2, not %s\n" % argv[2]


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_failed_check_exits_one(capsys, monkeypatch):
    # force a retention mismatch: the record must flip to fail and exit 1
    import bhkovacic.cli as cli
    from bhkovacic.master import PerturbationKind

    monkeypatch.setitem(cli._EXPECTED_RETAINED, PerturbationKind.SCALAR, {"S1"})
    code, out, _ = run(capsys, "families", "--beta", "scalar", "--json")
    assert code == 1
    payload = json.loads(out)
    assert not payload["all_passed"]
    assert payload["records"][0]["status"] == "fail"


def test_evidence_empty_grid_is_a_usage_error(capsys):
    code, out, err = run(capsys, "evidence", "--l-max", "-1", "--max-degree", "-5")
    assert code == 2
    assert "passed" not in out
    assert "error:" in err
    code, out, _ = run(capsys, "evidence", "--family", "G3", "--l-max", "1", "--json")
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "bounds", (("--l-max", "-3", "--max-degree", "0"), ("--l-max", "1"), ("--max-degree", "-1"))
)
def test_verify_all_rejects_bad_bounds_before_any_check(capsys, monkeypatch, bounds):
    import bhkovacic.cli as cli

    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran before the bounds were validated")

    monkeypatch.setattr(cli, "enumerate_families_n1", no_checks)
    code, out, err = run(capsys, "verify-all", *bounds, "--json")
    assert code == 2 and out == ""
    assert "error:" in err


def test_jsonable_keeps_ints():
    from bhkovacic.reporting import jsonable

    assert jsonable(2**60) == 2**60 and isinstance(jsonable(2**60), int)
    assert jsonable(-(2**300)) == -(2**300)
    assert jsonable(True) is True and jsonable(None) is None


def test_jsonable_writes_a_record_as_an_object():
    from bhkovacic.reporting import CheckRecord, jsonable

    record = CheckRecord("chandra.verify", "chandra.four_checks", "pass", (F(1, 2), 3))
    assert jsonable(record) == {
        "name": "chandra.verify",
        "tag": "chandra.four_checks",
        "status": "pass",
        "witness": ["1/2", 3],
    }
    assert jsonable([record]) == [jsonable(record)]


def test_a_report_with_no_record_has_not_passed():
    from bhkovacic.reporting import Report

    report = Report(tool_version="0", config={})
    assert not report.all_passed
    report.add("one", True, tag="t")
    assert report.all_passed


def test_verify_all_identities_fail_when_the_suite_checks_nothing(monkeypatch):
    import bhkovacic.cli as cli

    monkeypatch.setattr(cli, "recurrence_identity_suite", lambda s, bound: [])
    report = cli.run_verify_all(l_max=2, d_max=4)
    failing = [r.name for r in report.records if not r.passed]
    assert failing == ["hautot.obstruction_and_identities"]


@pytest.mark.parametrize("value", [object(), {1}, [F(1, 2), {"a": object()}]])
def test_jsonable_refuses_a_value_with_no_report_form(value):
    # a repr may carry an object's address, so a report would differ between runs
    from bhkovacic.reporting import jsonable

    with pytest.raises(TypeError):
        jsonable(value)


def test_evidence_violation_witness_writes_d_last_as_text(capsys, monkeypatch):
    import bhkovacic.cli as cli
    from bhkovacic.evidence import ScanReport

    big = -(2**299 + 12345)  # a 300-bit minor
    planted = ScanReport(families=("G3",), l_max=2, d_max=4, cells=5)
    planted.final_sign_violations.append(("G3", 2, 4, big))
    monkeypatch.setattr(cli, "scan", lambda **kwargs: planted)
    code, out, _ = run(capsys, "evidence", "--family", "G3", "--json")
    assert code == 1
    witness = json.loads(out)["records"][0]["witness"]
    assert witness["violations"] == [["G3", 2, 4, str(big)]]


def test_verify_all_failure_names_its_first_parameter(capsys, monkeypatch):
    # plant failures at l = 3: the witnesses name the first failing l, the
    # failed checks and the first failing (l, basis); the other records pass
    import bhkovacic.cli as cli

    real_checks, real_expansion = cli.chandrasekhar_checks, cli.extended_expansion

    def planted_checks(l, *args, **kwargs):
        record = real_checks(l, *args, **kwargs)
        if l >= 3:
            record = record._replace(sign_pattern_ok=False, recurrence_ok=l > 3)
        return record

    def planted_expansion(l, basis, *args, **kwargs):
        report = real_expansion(l, basis, *args, **kwargs)
        return report._replace(equal=report.equal and (l, basis) < (3, "laguerre"))

    monkeypatch.setattr(cli, "chandrasekhar_checks", planted_checks)
    monkeypatch.setattr(cli, "extended_expansion", planted_expansion)
    code, out, _ = run(capsys, "verify-all", "--l-max", "4", "--max-degree", "4", "--json")
    assert code == 1
    records = {r["name"]: r for r in json.loads(out)["records"]}
    chandra = records["chandra.verify"]
    assert chandra["status"] == "fail"
    assert chandra["witness"] == {
        "first_failure": {"l": 3, "checks": ["recurrence", "sign_pattern"]}
    }
    expansions = records["hautot.expansions"]
    assert expansions["status"] == "fail"
    assert expansions["witness"]["first_failure"] == {"l": 3, "basis": "laguerre"}
    assert set(expansions["witness"]["l2_coefficients"]) == {"kummer", "laguerre"}
    failing = {name for name, r in records.items() if r["status"] == "fail"}
    assert failing == {"chandra.verify", "hautot.expansions"}


def test_verify_all_g8_and_det_roots_name_their_first_failing_l(capsys, monkeypatch):
    # plant failures from l = 3 on in the low-degree solver, which family
    # retention runs and the G8 record reads, and in det(A): each record
    # names l = 3 as its first failure; the other records pass, since G8 is
    # still retained at l = 2
    import bhkovacic.auxode as auxode
    import bhkovacic.cli as cli

    real_solve, real_det = auxode.solve_low_degree, cli.det_A

    def planted_solve(eq, d, l=None, s_fixed=None):
        found = real_solve(eq, d, l=l, s_fixed=s_fixed)
        return found if l < 3 else []

    def planted_det(l):
        poly = real_det(l)
        return poly if l < 3 else poly + 1

    monkeypatch.setattr(auxode, "solve_low_degree", planted_solve)
    monkeypatch.setattr(cli, "det_A", planted_det)
    code, out, _ = run(capsys, "verify-all", "--l-max", "4", "--max-degree", "4", "--json")
    assert code == 1
    records = {r["name"]: r for r in json.loads(out)["records"]}
    for name in ("g8.low_degree", "hautot.det_roots"):
        assert records[name]["status"] == "fail"
        assert records[name]["witness"] == {"first_failure": {"l": 3}}
    failing = {name for name, r in records.items() if r["status"] == "fail"}
    assert failing == {"g8.low_degree", "hautot.det_roots"}


def test_verify_all_oracle_homotopy_and_det_equality_name_their_first_failure(
    capsys, monkeypatch
):
    # plant a nullspace at the third oracle case (E7, l = 1, s = 2), a failed
    # operator identity and an unequal Laguerre block from j = 2 on
    import bhkovacic.cli as cli

    real_nullspace = cli.brute_force_polynomial_solutions
    real_homotopy, real_equality = cli.homotopic_equivalence_check, cli.determinant_equality_check
    calls = []

    def planted_nullspace(ode, d):
        calls.append(d)
        basis = real_nullspace(ode, d)
        return basis + [Poly.x()] if len(calls) >= 3 else basis

    def planted_homotopy():
        return real_homotopy()._replace(operator_identities_ok=False)

    def planted_equality(j):
        report = real_equality(j)
        return report._replace(laguerre_equal=report.laguerre_equal and j < 2)

    monkeypatch.setattr(cli, "brute_force_polynomial_solutions", planted_nullspace)
    monkeypatch.setattr(cli, "homotopic_equivalence_check", planted_homotopy)
    monkeypatch.setattr(cli, "determinant_equality_check", planted_equality)
    code, out, _ = run(capsys, "verify-all", "--l-max", "2", "--max-degree", "4", "--json")
    assert code == 1
    records = {r["name"]: r for r in json.loads(out)["records"]}
    assert records["oracle.agreement"]["witness"] == {
        "first_failure": {"family": "E7", "l": 1, "s": "2"}
    }
    assert records["homotopy.z_power"]["witness"] == {
        "first_failure": {"check": "operator_identities"}
    }
    assert records["hautot.det_equality"]["witness"] == {"first_failure": {"j": 2}}
    failing = {name for name, r in records.items() if r["status"] == "fail"}
    assert failing == {"oracle.agreement", "homotopy.z_power", "hautot.det_equality"}

    # the G7 case comes first, and a failed parameter map before an identity;
    # two dummy calls make the planted nullspace start at the first case
    calls[:] = [0, 0]
    monkeypatch.setattr(
        cli,
        "homotopic_equivalence_check",
        lambda: real_homotopy()._replace(parameter_maps_ok=False, operator_identities_ok=False),
    )
    records = {r.name: r for r in cli.run_verify_all(l_max=2, d_max=4).records}
    assert records["oracle.agreement"].witness == {
        "first_failure": {"family": "G7", "l": 2, "s": special_frequency(2)}
    }
    assert records["homotopy.z_power"].witness == {"first_failure": {"check": "parameter_maps"}}


def test_chandra_writes_integers_past_the_str_limit(capsys, int_str_limit):
    # at l = 6 the coefficients have up to 1,076 digits: past a 640-digit
    # limit, as those of l = 9 are past the default 4,300
    outputs = {}
    for limit in (0, 640):
        int_str_limit(limit)
        for fmt in ("json", "csv", "human"):
            code, out, err = run(capsys, "chandra", "--l", "6", "--format", fmt)
            assert code == 0, err
            outputs[limit, fmt] = out
    assert all(outputs[640, fmt] == outputs[0, fmt] for fmt in ("json", "csv", "human"))
    assert max(map(len, json.loads(outputs[640, "json"])["records"][0]["witness"]["w_frame"])) > 640


def test_evidence_out_writes_integers_past_the_str_limit(capsys, tmp_path, int_str_limit):
    # G3 at l = 2 passes the default 4,300-digit limit near d = 860
    from bhkovacic.evidence import _cell, _column_at

    int_str_limit(4300)
    out_path = tmp_path / "cells.json"
    code, _, err = run(
        capsys, "evidence", "--family", "G3", "--l-max", "2", "--max-degree", "880",
        "--out", str(out_path),
    )
    assert code == 0, err
    int_str_limit(0)
    cells = json.loads(out_path.read_text())
    assert len(cells) == 881 and len(cells[-1]["D_last"]) > 4300
    column = _column_at("G3", 2)
    assert [int(c["D_last"]) for c in cells[-3:]] == [_cell(column, d)[2] for d in (878, 879, 880)]


def test_verify_all_builds_each_closed_form_once(monkeypatch):
    # the checks, both expansions and the oracle record's P(r) at l = 2
    # share one P(w) per l
    import collections

    import bhkovacic.auxode as auxode
    import bhkovacic.cli as cli
    import bhkovacic.hautot as hautot

    real = auxode.chandrasekhar_coeffs
    built = collections.Counter()

    def counted(l):
        built[l] += 1
        return real(l)

    for module in (auxode, cli, hautot):
        monkeypatch.setattr(module, "chandrasekhar_coeffs", counted)
    assert cli.run_verify_all(l_max=4, d_max=4).all_passed
    assert built == {2: 1, 3: 1, 4: 1}


def test_verify_all_builds_each_family_equation_once_per_check_loop():
    # family_equation(label) is the one build of a family's s-symbolic
    # equation, shared by every check loop: a cold run builds each of the
    # 11 families it reads once, whatever check reads it at whatever
    # (l, s), and a warm run builds none
    import bhkovacic.cli as cli
    import bhkovacic.evidence as evidence
    from bhkovacic.auxode import family_equation

    family_equation.cache_clear()
    evidence._column.cache_clear()
    assert cli.run_verify_all().all_passed
    assert family_equation.cache_info().misses == 11
    for label in ("G3", "G5", "G6", "G7", "G8", "E3", "E5", "E6", "E7", "E8", "S3"):
        family_equation(label)
    assert cli.run_verify_all().all_passed
    assert family_equation.cache_info().misses == 11


def test_verify_all_runs_the_public_r_frame_and_det_A(monkeypatch):
    # the oracle record and each chandrasekhar_checks(l), l = 2..6, reach
    # the public chandrasekhar_r_frame, and the det-roots loop reaches
    # hautot.det_A once per l, through every module that binds them
    import bhkovacic.auxode as auxode
    import bhkovacic.cli as cli
    import bhkovacic.hautot as hautot

    calls = {"chandrasekhar_r_frame": 0, "det_A": 0}

    def count(modules, name):
        real = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)

    count((auxode, cli), "chandrasekhar_r_frame")
    count((hautot, cli), "det_A")
    assert cli.run_verify_all().all_passed
    assert calls == {"chandrasekhar_r_frame": 6, "det_A": 5}


def test_verify_all_passing_witnesses_name_no_failure(capsys):
    code, out, _ = run(capsys, "verify-all", "--l-max", "2", "--max-degree", "4", "--json")
    assert code == 0
    records = {r["name"]: r for r in json.loads(out)["records"]}
    assert records["chandra.verify"]["witness"] is None
    assert records["g8.low_degree"]["witness"] is None
    assert records["hautot.det_roots"]["witness"] is None
    assert list(records["hautot.expansions"]["witness"]) == ["l2_coefficients"]
    assert records["evidence.scan"]["witness"] == {"cells": 5 * 5, "flagged": 3}
    for name in ("oracle.agreement", "homotopy.z_power", "hautot.det_equality"):
        assert records[name]["witness"] is None


def test_verify_all_solves_each_g8_degree_one_system_once(monkeypatch):
    # the G8 record reads family retention's degree-1 checks at l = 2..6
    # instead of solving them again
    import bhkovacic.auxode as auxode
    import bhkovacic.cli as cli

    real_solve, solved = auxode.solve_low_degree, []

    def counted(eq, d, l=None, s_fixed=None):
        solved.append((eq.family.label, d, l, s_fixed))
        return real_solve(eq, d, l=l, s_fixed=s_fixed)

    monkeypatch.setattr(auxode, "solve_low_degree", counted)
    assert cli.run_verify_all(l_max=4, d_max=4).all_passed
    g8 = [(d, l, s) for label, d, l, s in solved if label == "G8"]
    assert g8 == [(1, l, None) for l in range(2, 7)]


def test_verify_all_scan_failure_names_its_first_cell(capsys, monkeypatch):
    # plant a final-sign violation and a disagreeing cross-check: the witness
    # names the violation, which comes first; without it, the cross-check
    import bhkovacic.cli as cli

    real_scan = cli.scan

    def planted_scan(plant_violation):
        def planted(*args, **kwargs):
            report = real_scan(*args, **kwargs)
            if plant_violation:
                report.final_sign_violations += [("E3", 2, 3, 0), ("E7", 1, 1, 0)]
            report.cross_checks[1] = dict(report.cross_checks[1], agree=False)
            report.cross_checks_ok = False
            return report

        return planted

    for plant_violation, expected in (
        (True, {"check": "final_sign", "family": "E3", "l": 2, "d": 3}),
        (False, {"check": "cross_check", "family": "G3", "l": 2, "d": 4}),
    ):
        monkeypatch.setattr(cli, "scan", planted_scan(plant_violation))
        code, out, _ = run(capsys, "verify-all", "--l-max", "2", "--max-degree", "4", "--json")
        assert code == 1
        records = {r["name"]: r for r in json.loads(out)["records"]}
        assert records["evidence.scan"]["status"] == "fail"
        assert records["evidence.scan"]["witness"] == {
            "cells": 5 * 5,
            "flagged": 3,
            "first_failure": expected,
        }
        assert [n for n, r in records.items() if r["status"] == "fail"] == ["evidence.scan"]


def test_evidence_unwritable_out_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # the sink is opened before any cell is computed
    import bhkovacic.evidence as evidence

    def no_cells(*args):
        raise AssertionError("a cell was computed before the sink was opened")

    monkeypatch.setattr(evidence, "_cell", no_cells)
    out_path = str(tmp_path / "missing" / "cells.json")
    code, out, err = run(capsys, "evidence", "--l-max", "6", "--max-degree", "200", "--out", out_path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}")
    assert "Traceback" not in err


def test_startup_imports_no_process_pool():
    # the scan imports its worker pool only when it fans out
    code = (
        "import sys, bhkovacic.cli as cli; cli.build_parser(); "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(bhkovacic.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module,name,exc,argv",
    (
        (
            "bhkovacic.evidence",
            "bareiss_determinant",
            ArithmeticError("fraction-free elimination lost exactness"),
            ("evidence", "--family", "G3", "--l-max", "2", "--max-degree", "4", "--json"),
        ),
        (
            "bhkovacic.cli",
            "enumerate_families_n1",
            NotImplementedError("no such branch"),
            ("families", "--beta", "scalar", "--json"),
        ),
        (
            "bhkovacic.cli",
            "chandrasekhar_coeffs",
            ValueError("planted after the arguments were checked"),
            ("chandra", "--l", "2", "--json"),
        ),
    ),
    ids=("arithmetic", "not_implemented", "value_error"),
)
def test_internal_failure_is_one_error_line_and_exit_one(
    capsys, monkeypatch, module, name, exc, argv
):
    # an exact computation that cannot finish is a failed run (exit 1), not
    # a usage error (exit 2), and it prints no traceback
    import importlib

    def planted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(importlib.import_module(module), name, planted)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {type(exc).__name__}: {exc}\n"
