"""End-to-end tests for the command-line interface."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

import lseq
from lseq import gcdlaws, lfamily, search
from lseq.cli import _COMMANDS, _build_parser, main
from lseq.search import SCAN_KINDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def json_lines_without_elapsed(out):
    """The --json lines with elapsed_ms, wall-clock bookkeeping, dropped."""
    lines = json_lines(out)
    for line in lines:
        line.pop("elapsed_ms", None)
    return lines


def test_eval_table(capsys):
    code, out, err = run_cli(capsys, "eval", "--family", "L1", "--n", "9")
    assert code == 0
    assert "L1(9) = 262657" in out
    assert err == ""


def test_eval_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "L1", "--n", "9", "--json")
    assert code == 0
    header, result = json_lines(out)
    assert header["type"] == "header"
    assert header["command"] == "eval"
    assert result["type"] == "result"
    assert result["result"]["value"] == "262657"


def test_eval_digits_cap(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "L2", "--n", "100", "--digits-cap", "20"
    )
    assert code == 0
    assert "…" in out
    assert "(61 digits)" in out


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_digits_cap_below_one_exits_2(capsys, cap):
    code, out, err = run_cli(capsys, "eval", "--family", "L1", "--n", "9", "--digits-cap", cap)
    assert (code, out) == (2, "")
    assert err == f"error: --digits-cap must be >= 1, got {cap}\n"


def test_digits_cap_one(capsys):
    code, out, err = run_cli(capsys, "eval", "--family", "L1", "--n", "9", "--digits-cap", "1")
    assert (code, err) == (0, "")
    assert "L1(9) = 2…7(6 digits)" in out


def test_prime_check_header_honours_digits_cap(capsys):
    n = "1" + "0" * 59 + "7"
    code, out, err = run_cli(capsys, "prime-check", "--n", n, "--digits-cap", "10")
    assert (code, err) == (0, "")
    header, result = out.splitlines()
    assert header.startswith("# lseq prime-check n=10000…00007(61 digits) [")
    assert result.startswith("10000…00007(61 digits): probable_prime")


def test_eval_beyond_decimal_conversion_limit(capsys):
    # CPython 3.11+ caps int/str conversion at 4,300 digits by default; the
    # header was printed, then the value failed with exit 2.
    argv = ["eval", "--family", "L1", "--n", "10000"]
    code, out, err = run_cli(capsys, *argv, "--digits-cap", "20")
    assert (code, err) == (0, "")
    assert out.rstrip().endswith("(6021 digits)")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    value = json_lines(out)[-1]["result"]["value"]
    assert len(value) == 6021 and value.isdigit()


def test_prime_check_beyond_decimal_conversion_limit(capsys):
    n = "2" + "0" * 4399
    code, out, _ = run_cli(capsys, "prime-check", "--n", n, "--json")
    assert code == 0
    assert json_lines(out)[-1]["result"]["evidence"] == "factor=2"


def test_eval_errors(capsys):
    code, out, err = run_cli(capsys, "eval", "--family", "L9", "--n", "3")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "eval", "--family", "L1", "--n", "0")
    assert code == 2
    assert "index must be >= 1" in err
    code, _, err = run_cli(
        capsys, "eval", "--family", "L1", "--n", "100", "--bit-budget", "50"
    )
    assert code == 2


def test_residue(capsys):
    code, out, _ = run_cli(
        capsys, "residue", "--family", "L1", "--n", "10", "--m", "7", "--json"
    )
    assert code == 0
    assert json_lines(out)[-1]["result"]["residue"] == "0"


def test_orbit_statement1(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--statement", "1", "--family", "L1",
        "--l", "10", "--p", "7", "--k-max", "25", "--json",
    )
    assert code == 0
    assert json_lines(out)[-1]["result"]["holds"] is True


def test_orbit_statement2(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--statement", "2", "--family", "L2",
        "--l", "68", "--p", "11", "--t", "3", "--n-max", "3", "--json",
    )
    assert code == 0
    assert json_lines(out)[-1]["result"]["holds"] is True


def test_orbit_precondition_error(capsys):
    code, _, err = run_cli(
        capsys, "orbit", "--statement", "1", "--family", "L1",
        "--l", "3", "--p", "7", "--k-max", "5",
    )
    assert code == 2
    assert "precondition failed" in err


@pytest.mark.parametrize(
    "statement, l, p", [("1", "2", "21"), ("2", "7", "49")], ids=["1-p21", "2-p49"]
)
def test_orbit_composite_modulus_exits_2(capsys, statement, l, p):
    code, out, err = run_cli(
        capsys, "orbit", "--statement", statement, "--family", "L1",
        "--l", l, "--p", p, "--k-max", "3", "--t", "1",
    )
    assert (code, out) == (2, "")
    assert err.endswith(f"must be an odd prime, got {p}\n")
    assert err.count("\n") == 1


def test_theorem3(capsys):
    code, out, _ = run_cli(capsys, "theorem3", "--k", "2", "--n", "5", "--json")
    assert code == 0
    assert json_lines(out)[-1]["result"]["holds"] is True
    code, _, err = run_cli(capsys, "theorem3", "--k", "2", "--n", "6")
    assert code == 2


def test_product_identity(capsys):
    code, out, _ = run_cli(capsys, "product-identity", "--k", "3", "--json")
    assert code == 0
    assert json_lines(out)[-1]["result"]["holds"] is True
    code, _, err = run_cli(capsys, "product-identity", "--k", "7")
    assert code == 2
    assert "budget" in err


def test_prime_check(capsys):
    code, out, _ = run_cli(capsys, "prime-check", "--n", "262657", "--json")
    assert code == 0
    result = json_lines(out)[-1]["result"]
    assert result["classification"] == "prime"
    assert result["evidence"] == "trial_division"

    code, out, _ = run_cli(capsys, "prime-check", "--n", str(2**127 - 1), "--json")
    assert code == 0
    header, result = json_lines(out)
    assert header["provenance"] == {"engine": "lseq", "version": lseq.__version__}
    assert result["result"] == {"classification": "probable_prime", "evidence": "bpsw", "rounds": "2"}


def test_prime_check_proves_an_l4_prime(capsys):
    # L4(597), 1194 bits, is proven by its N+1 proof, not labeled by BPSW.
    n = str(lfamily.eval_exact(lfamily.LFamily.L4, 597))
    code, out, err = run_cli(capsys, "prime-check", "--n", n, "--digits-cap", "10")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "26903…30911(360 digits): prime (evidence=llr:p=4, rounds=2)"
    code, out, err = run_cli(capsys, "prime-check", "--n", n, "--json")
    assert (code, err) == (0, "")
    assert json_lines(out)[-1]["result"] == {
        "classification": "prime", "evidence": "llr:p=4", "rounds": "2"
    }


def test_order_and_witness(capsys):
    code, out, _ = run_cli(capsys, "order", "--a", "2", "--m", "73", "--json")
    assert code == 0
    assert json_lines(out)[-1]["result"]["order"] == "9"
    code, out, _ = run_cli(capsys, "lemma2-witness", "--k", "3", "--json")
    assert code == 0
    result = json_lines(out)[-1]["result"]
    assert result["q"] == "262657"
    assert result["order"] == "27"
    code, _, err = run_cli(capsys, "order", "--a", "6", "--m", "9")
    assert code == 2
    code, out, err = run_cli(capsys, "order", "--a", "3", "--m", "2", "--json")
    assert (code, err) == (0, "")
    assert json_lines(out)[-1]["result"]["order"] == "1"


def test_composite_without_factor_below_1000(capsys):
    # 1018081 = 1009^2 is decided by the smallest-factor table (n <= 2^20)
    # but has no prime factor below 1000; both commands used to exit 1 with a
    # traceback.
    code, out, err = run_cli(capsys, "prime-check", "--n", "1018081", "--json")
    assert (code, err) == (0, "")
    assert json_lines(out)[-1]["result"]["evidence"] == "factor=1009"
    code, out, err = run_cli(capsys, "order", "--a", "2", "--m", "1018081", "--json")
    assert (code, err) == (0, "")
    assert json_lines(out)[-1]["result"]["order"] == "508536"


@pytest.mark.parametrize(
    "k, q",
    [("17", 3357644239), ("20", 662489036191), ("40", 1556181178759286886529)],
    ids=["17", "20", "40"],
)
def test_lemma2_witness_large_k(capsys, k, q):
    # L1(3^(k-1)) is past eval_exact's bit budget from k = 17 on; the
    # witness search never builds it.
    code, out, err = run_cli(capsys, "lemma2-witness", "--k", k, "--json")
    assert (code, err) == (0, "")
    assert json_lines(out)[-1]["result"] == {"q": str(q), "order": str(3 ** int(k))}


def test_lemma2_witness_search_exhausted_exits_2(capsys, monkeypatch):
    # k = 11 has no witness with m <= 2^21 either, but takes seconds to say so.
    monkeypatch.setattr("lseq.arith._LEMMA2_STEPS", 1000)
    code, out, err = run_cli(capsys, "lemma2-witness", "--k", "11")
    assert (code, out) == (2, "")
    assert err == f"error: no witness with q below {2 * 3**11 * 1001}\n"


def test_order_group_order_beyond_budget_exits_2(capsys):
    # p - 1 = 2^3 * 3 * 5 * q1 * q2 with q1, q2 primes near 2^61 and 2^62.
    p = "1276058875953519283643346360300271285561"
    code, out, err = run_cli(capsys, "order", "--a", "2", "--m", p)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: factoring the group order for modulus {p} exceeded the budget")
    assert err.count("\n") == 1


def test_gcd_l1_same_and_cross(capsys):
    code, out, _ = run_cli(
        capsys, "gcd-l1", "--k1", "1", "--t1", "5", "--k2", "1", "--t2", "7", "--json"
    )
    assert code == 0
    result = json_lines(out)[-1]["result"]
    assert result["gcd"] == "73"
    assert result["match"] is True
    code, out, _ = run_cli(
        capsys, "gcd-l1", "--k1", "0", "--t1", "5", "--k2", "2", "--t2", "7", "--json"
    )
    assert code == 0
    assert json_lines(out)[-1]["result"]["gcd"] == "1"
    code, _, err = run_cli(
        capsys, "gcd-l1", "--k1", "0", "--t1", "9", "--k2", "0", "--t2", "5"
    )
    assert code == 2


def test_gcd_l3(capsys):
    code, out, _ = run_cli(
        capsys, "gcd-l3", "--m1", "0", "--n1", "2", "--t1", "5",
        "--m2", "0", "--n2", "2", "--t2", "7", "--json",
    )
    assert code == 0
    result = json_lines(out)[-1]["result"]
    assert result["gcd"] == "241"
    assert result["match"] is True


def test_repunit_commands(capsys):
    code, out, _ = run_cli(
        capsys, "repunit", "--b", "10", "--n", "5", "--kind", "minus", "--json"
    )
    assert code == 0
    assert json_lines(out)[-1]["result"]["value"] == "11111"
    code, out, _ = run_cli(
        capsys, "gcd-repunit", "--b", "10", "--n", "6", "--m", "4",
        "--kind", "minus", "--json",
    )
    assert code == 0
    result = json_lines(out)[-1]["result"]
    assert result["gcd"] == "11"
    assert result["match"] is True


def test_insularity_structured(capsys):
    code, out, _ = run_cli(
        capsys, "insularity", "--sequence", "L1", "--pow3", "2",
        "--pairs", "10", "--seed", "3", "--json",
    )
    assert code == 0
    lines = json_lines(out)
    records = [l for l in lines if l["type"] == "record"]
    assert len(records) == 10
    assert all(r["match"] for r in records)
    assert lines[-1]["result"]["matches"] == "10"


def test_insularity_repunit_sequence(capsys):
    code, out, _ = run_cli(
        capsys, "insularity", "--sequence", "repunit", "--b", "10",
        "--kind", "minus", "--bound", "60", "--pairs", "12", "--json",
    )
    assert code == 0
    assert json_lines(out)[-1]["result"]["matches"] == "12"


def test_scan_table_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "scan", "--kind", "l4-twins", "--n-max", "12")
    assert code == 0
    assert "twin pairs: [(4, 5), (9, 10)]" in out
    assert "unit-flagged pairs: [(1, 2)]" in out
    # incomplete runs exit 1
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "l4-twins", "--n-max", "12", "--limit", "4"
    )
    assert code == 1
    assert "completed 4/11" in out


def test_scan_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "square-divisors", "--family", "L2",
        "--n-max", "100", "--p-max", "11", "--json",
    )
    assert code == 0
    lines = json_lines(out)
    assert lines[0]["type"] == "header"
    assert lines[0]["spec"]["kind"] == "square_divisors"
    summary = lines[-1]
    assert summary["type"] == "summary"
    assert summary["square_hits"] == [["68", "11", "3"], ["97", "11", "2"]]


def test_scan_congruence_audit(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "congruence-audit", "--n-max", "50", "--json"
    )
    assert code == 0
    assert json_lines(out)[-1]["all_hold"] is True


def test_scan_congruence_audit_reports_a_violated_rule(capsys, monkeypatch):
    # 7 divides L1(n) exactly when 3 does not divide n, and L1(3) = 73.
    false_rule = lfamily.CongruenceRule(lfamily.LFamily.L1, 7, 3, (3,), "false: 7 at multiples of 3")
    real = search.builtin_congruence_rules
    monkeypatch.setattr(
        search,
        "builtin_congruence_rules",
        lambda family: [*real(family), false_rule] if family is lfamily.LFamily.L1 else real(family),
    )
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "congruence-audit", "--family", "L1", "--n-max", "50", "--json"
    )
    assert code == 1
    header, *records, summary = json_lines(out)
    assert [r["verdict"] for r in records] == ["holds", "holds", "violated"]
    assert records[-1]["detail"]["first_violation"] == 3
    assert summary["all_hold"] is False
    assert summary["complete"] is True
    code, out, _ = run_cli(capsys, "scan", "--kind", "congruence-audit", "--family", "L1", "--n-max", "50")
    assert code == 1
    assert "all rules hold: False" in out


_SQUARE_L4 = ["scan", "--kind", "square-divisors", "--n-max", "20", "--p-max", "11"]


def test_scan_family_spelling_is_one_scan(capsys):
    outputs = []
    for family in ("l4", "L4"):
        for form in ([], ["--json"]):
            code, out, _ = run_cli(capsys, *_SQUARE_L4, "--family", family, *form)
            assert code == 0
            outputs.append(json_lines_without_elapsed(out) if form else out)
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
    header = outputs[1][0]
    assert header["spec"]["family"] == "L4"
    # Re-taken when the spec lost its extra_rounds field.
    assert header["spec_sha256"] == "a4314eebcf0cc76a9fb3ab97ea73017ea32cef7a989a95765b20685a2fc0a8dd"


def test_journal_with_lower_case_family_resumes(tmp_path, capsys):
    # Journals written before specs stored canonical family names hold the
    # name as typed, hashed as typed.
    path = tmp_path / "ck.jsonl"
    code, _, _ = run_cli(capsys, *_SQUARE_L4, "--family", "L4", "--checkpoint", str(path), "--limit", "2")
    assert code == 1
    header, *records = path.read_text(encoding="ascii").splitlines()
    old = json.loads(header)
    old["spec"]["family"] = "l4"
    old["spec_sha256"] = _spec_sha256(old["spec"])
    # Re-taken when the spec lost its extra_rounds field.
    assert old["spec_sha256"] == "ac31b0f5fcf86b7700f63e4af4e65abfafbd794ec19d7fb5e2e353ba39e2a9e9"
    text = json.dumps(old, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join([text, *records]) + "\n", encoding="ascii")
    code, resumed, _ = run_cli(capsys, "resume", "--path", str(path), "--json")
    assert code == 0
    code, fresh, _ = run_cli(capsys, *_SQUARE_L4, "--family", "L4", "--json")
    assert code == 0
    assert json_lines_without_elapsed(resumed) == json_lines_without_elapsed(fresh)
    # The journal keeps its header, so it resumes again.
    assert path.read_text(encoding="ascii").splitlines()[0] == text
    code, again, _ = run_cli(capsys, "resume", "--path", str(path), "--json")
    assert code == 0
    assert json_lines_without_elapsed(again) == json_lines_without_elapsed(fresh)
    # A changed spelling under the old hash is still a tampered spec.
    old["spec"]["family"] = "L4"
    path.write_text("\n".join([json.dumps(old), *records]) + "\n", encoding="ascii")
    code, _, err = run_cli(capsys, "resume", "--path", str(path))
    assert code == 2
    assert err == "error: stored spec hash does not match the stored spec\n"


def test_scan_missing_family(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--kind", "square-divisors", "--n-max", "10", "--p-max", "10"
    )
    assert code == 2
    assert "family" in err


def test_scan_checkpoint_resume(tmp_path, capsys):
    path = str(tmp_path / "ck.jsonl")
    code, _, _ = run_cli(
        capsys, "scan", "--kind", "l4-twins", "--n-max", "20",
        "--checkpoint", path, "--limit", "7",
    )
    assert code == 1
    code, out, _ = run_cli(capsys, "resume", "--path", path)
    assert code == 0
    assert "completed 19/19" in out


def test_fsync_once_per_journal_line(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("lseq.search.os.fsync", calls.append)
    journals = {}
    for fsync in ([], ["--fsync"]):
        path = tmp_path / f"ck{len(fsync)}.jsonl"
        code, _, _ = run_cli(
            capsys, "scan", "--kind", "l4-twins", "--n-max", "30",
            "--checkpoint", str(path), "--limit", "10", *fsync,
        )
        assert code == 1
        assert len(calls) == len(fsync) * 11  # the header and 10 records
        code, _, _ = run_cli(capsys, "resume", "--path", str(path), *fsync)
        assert code == 0
        journals[len(fsync)] = json_lines_without_elapsed(path.read_text(encoding="ascii"))
    assert len(calls) == len(journals[1]) == 30
    assert journals[0] == journals[1]


def test_scan_json_stream_is_resumable(tmp_path, capsys):
    # the record lines of --json output use the checkpoint format verbatim
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "l3-pow2", "--n-max", "6", "--json"
    )
    assert code == 0
    stream = tmp_path / "stream.jsonl"
    stream.write_text(out, encoding="ascii")
    code, out, _ = run_cli(capsys, "resume", "--path", str(stream), "--json")
    assert code == 0
    assert json_lines(out)[-1]["prime_indices"] == ["0", "1", "2", "5"]


def test_scan_json_lines_are_the_journal_bytes(tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    code, out, _ = run_cli(
        capsys, "scan", "--kind", "l4-twins", "--n-max", "30", "--checkpoint", str(path), "--json"
    )
    assert code == 0
    journal = path.read_text(encoding="ascii")
    assert journal.count("\n") == 30  # header and 29 records
    assert out.startswith(journal)
    assert [line["type"] for line in json_lines(out[len(journal):])] == ["summary"]


def test_scan_checkpoint_in_missing_directory_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "ck.jsonl")
    code, out, err = run_cli(
        capsys, "scan", "--kind", "l4-twins", "--n-max", "10", "--checkpoint", path
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write checkpoint {path!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--limit", "0"], "limit must be >= 1, got 0"),
        (["--jobs", "0"], "jobs must be >= 1, got 0"),
    ],
    ids=["limit", "jobs"],
)
def test_scan_invalid_run_arguments_create_no_checkpoint(tmp_path, capsys, flags, message):
    # The journal used to be created with its header first, so the corrected
    # command then refused to overwrite it.
    path = tmp_path / "ck.jsonl"
    argv = ["scan", "--kind", "l4-twins", "--n-max", "20", "--checkpoint", str(path)]
    code, out, err = run_cli(capsys, *argv, *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()
    code, _, _ = run_cli(capsys, *argv, "--limit", "5")
    assert code == 1


@pytest.mark.parametrize("flags", [["--limit", "0"], ["--jobs", "0"]], ids=["limit", "jobs"])
def test_resume_invalid_run_arguments_keep_torn_tail(tmp_path, capsys, flags):
    path = tmp_path / "ck.jsonl"
    run_cli(
        capsys, "scan", "--kind", "l4-twins", "--n-max", "20",
        "--checkpoint", str(path), "--limit", "5",
    )
    with open(path, "a", encoding="ascii") as handle:
        handle.write('{"detail":{"le')
    before = path.read_bytes()
    code, out, err = run_cli(capsys, "resume", "--path", str(path), *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.read_bytes() == before


@pytest.mark.parametrize("order", [[0, 1, 2, 4, 5], [0, 2, 1, 3]], ids=["gap", "out-of-order"])
def test_resume_gap_or_disorder_exits_2(tmp_path, capsys, order):
    path = tmp_path / "ck.jsonl"
    run_cli(
        capsys, "scan", "--kind", "l4-twins", "--n-max", "20",
        "--checkpoint", str(path), "--limit", "6",
    )
    lines = path.read_text(encoding="ascii").splitlines()
    kept = [lines[0]] + [lines[1 + pos] for pos in order]
    path.write_text("\n".join(kept) + "\n", encoding="ascii")
    code, out, err = run_cli(capsys, "resume", "--path", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "where" in err and "is next" in err


def test_resume_missing_file(capsys):
    code, _, err = run_cli(capsys, "resume", "--path", "/nonexistent/scan.jsonl")
    assert code == 2
    assert err.startswith("error:")


def _rewrite_first_record(path, change):
    lines = path.read_text(encoding="ascii").splitlines()
    record = json.loads(lines[1])
    assert record["type"] == "record"
    change(record)
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda r: r.pop("verdict"), "'verdict' is missing"),
        (lambda r: r.pop("pos"), "'pos' is missing"),
        (lambda r: r.update(pos="0"), "'pos' is missing or not of type int"),
        (lambda r: r.update(pos=True), "'pos' is missing or not of type int"),
        (lambda r: r.update(index=1), "'index' is missing or not of type list"),
        (lambda r: r.update(index=["1"]), "'index' is not a list of integers"),
        (lambda r: r.update(verdict=None), "'verdict' is missing or not of type str"),
        (lambda r: r.update(detail=[]), "'detail' is missing or not of type dict"),
        (lambda r: r.update(elapsed_ms=1.5), "'elapsed_ms' is missing or not of type int"),
    ],
    ids=["no-verdict", "no-pos", "pos-str", "pos-bool", "index-int", "index-strs",
         "verdict-null", "detail-list", "elapsed-float"],
)
def test_resume_malformed_record_exits_2(tmp_path, capsys, change, message):
    path = tmp_path / "scan.jsonl"
    code, _, _ = run_cli(
        capsys, "scan", "--kind", "l4-twins", "--n-max", "12",
        "--checkpoint", str(path), "--limit", "3",
    )
    assert code == 1
    _rewrite_first_record(path, change)
    code, out, err = run_cli(capsys, "resume", "--path", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "edit, message",
    [
        ("append", "error: checkpoint has more records than candidates\n"),
        ("index", "error: record 2 index (99,) does not match candidate (3,)\n"),
    ],
    ids=["past-last-candidate", "wrong-index"],
)
def test_resume_refuses_records_that_are_not_the_candidates(tmp_path, capsys, edit, message):
    path = tmp_path / "scan.jsonl"
    code, _, _ = run_cli(
        capsys, "scan", "--kind", "l4-twins", "--n-max", "6", "--checkpoint", str(path)
    )
    assert code == 0
    lines = path.read_text(encoding="ascii").splitlines()
    if edit == "append":
        record = {**json.loads(lines[-1]), "pos": len(lines) - 1}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        record = {**json.loads(lines[3]), "index": [99]}
        lines[3] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    before = path.read_bytes()
    code, out, err = run_cli(capsys, "resume", "--path", str(path))
    assert (code, out, err) == (2, "", message)
    assert path.read_bytes() == before


def test_resume_refuses_journal_of_older_primality_engine(tmp_path, capsys):
    # Before N-1 proofs the fingerprint had no "primality" key; such a
    # journal's L3 records read lucas_witness.  With "primality": 2, an L2 or
    # L4 record above 2^64 reads mr_witness=2 where a factor up to the block
    # bound now reads factor=q.  With "primality": 3, an L2 or L4 prime above
    # 2^64 reads bpsw+2r:seed=S where it now reads llr:p=P or morrison:p=P.
    # With "primality": 4, a prime between 2^20 and 2^64 may read a shorter
    # mr_deterministic base list.  With "primality": 5, a value above 2^64 of
    # no L-form reads bpsw+2r:seed=S where it now reads bpsw.  None may be
    # extended.
    path = tmp_path / "scan.jsonl"
    code, _, _ = run_cli(
        capsys, "scan", "--kind", "l3-pow2", "--n-max", "9",
        "--checkpoint", str(path), "--limit", "3",
    )
    assert code == 1
    lines = path.read_text(encoding="ascii").splitlines()
    for older in (None, 2, 3, 4, 5):
        header = json.loads(lines[0])
        if older is None:
            del header["fingerprint"]["primality"]
        else:
            header["fingerprint"]["primality"] = older
        text = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join([text, *lines[1:]]) + "\n", encoding="ascii")
        code, out, err = run_cli(capsys, "resume", "--path", str(path))
        assert (code, out) == (2, ""), older
        assert err == "error: engine fingerprint changed; refusing to mix results\n"


# A journal as written before BPSW lost its seeded rounds: format 1, with
# extra_rounds in its spec and extra_rounds and seed in its fingerprint.
_FORMAT_1_JOURNAL = [
    '{"fingerprint":{"deterministic_limit":18446744073709551616,"engine":"lseq","extra_rounds":2,'
    '"format":1,"primality":5,"seed":0,"version":"0.1.0"},"format":1,"spec":{"extra_rounds":2,'
    '"family":null,"k_max":null,"kind":"l3_pow2","m_max":null,"n_max":9,"p_max":null,"seed":0},'
    '"spec_sha256":"913aefb2372fe5c2d8263a9dc2f317411d74b0df7e29f7a0a3a44ec235a4afa3","type":"header"}',
    '{"detail":{"evidence":"trial_division","rounds":0,"sequence_index":1},"elapsed_ms":2,'
    '"index":[0],"pos":0,"type":"record","verdict":"prime"}',
    '{"detail":{"evidence":"trial_division","rounds":0,"sequence_index":2},"elapsed_ms":0,'
    '"index":[1],"pos":1,"type":"record","verdict":"prime"}',
]


def test_resume_refuses_a_format_1_journal(tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    path.write_text("\n".join(_FORMAT_1_JOURNAL) + "\n", encoding="ascii")
    before = path.read_bytes()
    assert run_cli(capsys, "resume", "--path", str(path)) == (
        2, "", "error: checkpoint format 1 is not 2\n"
    )
    assert path.read_bytes() == before


def test_resume_malformed_header_exits_2(tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    for text in ('{"type":"header"}\n', "[1, 2]\n", '{"type":"header","format":1,"spec":7}\n'):
        path.write_text(text, encoding="ascii")
        code, _, err = run_cli(capsys, "resume", "--path", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--kind", "congruence-audit", "--n-max", "50", "--json"],
        ["eval", "--family", "L1", "--n", "9"],
    ],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    # The reader is gone before the first write, as with `| head -c 0`.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lseq.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lseq.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_startup_builds_no_smallest_factor_table():
    # The 1 MiB table in arith is built on first use, not by importing the
    # CLI: `lseq --version` is the launch whose time bench/run.py reports as
    # setup_s.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lseq.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import contextlib, io\n"
        "from lseq import arith, cli\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['--version'])\n"
        "assert arith._spf is None, 'table built at startup'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], stderr=subprocess.PIPE, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_pool_and_tempfile_load_only_when_used(tmp_path):
    # -S: the site module may import tempfile itself.  Modules are compared
    # with the set loaded before lseq, so what the interpreter preloads does
    # not matter.  The same holds for the modules of the gcd, repunit and
    # verify-paper commands.  hashlib, which maps OpenSSL, never loads where
    # CPython's SHA-256 module (_sha2 from 3.12, _sha256 before) is importable:
    # the spec digest comes from it, and only once a scan takes one.  No
    # launch loads random (which loads _sha2 itself from 3.12) unless it
    # samples; the pool stack may load it, so the --jobs 2 run comes last.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lseq.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cut = str(tmp_path / "cut.jsonl")
    code = textwrap.dedent(
        f"""
        import contextlib, importlib.util, io, json, sys
        builtin = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
        before = set(sys.modules)
        from lseq import cli, search
        from lseq.search import ScanSpec

        def added(*names):
            return sorted(set(names) & (set(sys.modules) - before))

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            assert code in (0, 1), (argv, code)
            return [
                {{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}}
                for line in out.getvalue().splitlines()
            ]

        with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--version"])
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["eval", "--family", "L1", "--n", "9"]) == 0
        digests = ("_sha2", "_sha256", "hashlib", "_hashlib")
        sampler = ("random", "_random", "bisect")
        unused = added(*digests, *sampler, "lseq.paper", "lseq.gcdlaws", "lseq.repunit")
        assert not unused, unused
        run("verify-paper", "--only", "golden-values,square-divisors", "--json")
        assert not added(*digests, *sampler)
        assert search._sha256_new.cache_info().currsize == 0
        openssl = ("hashlib", "_hashlib") if builtin else ()
        scan = ["scan", "--kind", "l4-twins", "--n-max", "30", "--json"]
        solo = run(*scan, "--jobs", "1")
        assert not added(*openssl, *sampler)
        run(*scan, "--limit", "7", "--checkpoint", {cut!r})
        assert not added(*openssl, *sampler)
        run("resume", "--path", {cut!r}, "--json")
        assert not added(*openssl, *sampler)
        loaded = sorted(
            name for name in set(sys.modules) - before
            if name == "concurrent.futures.process"
            or name.startswith("multiprocessing")
            or name == "tempfile"
        )
        assert not loaded, loaded
        # Without elapsed_ms, the --json lines carry every canonical_bytes() field.
        assert run(*scan, "--jobs", "2") == solo
        assert "concurrent.futures.process" in sys.modules
        assert not added(*openssl)
        import hashlib
        canonical = ScanSpec(kind="l4_twins", n_max=30).canonical()
        assert solo[0]["spec_sha256"] == hashlib.sha256(canonical.encode("ascii")).hexdigest()
        """
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], stderr=subprocess.PIPE, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_scan_lines_do_not_depend_on_jobs(capsys):
    scan = [
        "scan", "--kind", "square-divisors", "--family", "L3", "--n-max", "60", "--p-max", "10", "--json",
    ]
    code, solo, _ = run_cli(capsys, *scan, "--jobs", "1")
    assert code == 0
    code, multi, _ = run_cli(capsys, *scan, "--jobs", "2")
    assert code == 0
    assert json_lines_without_elapsed(solo) == json_lines_without_elapsed(multi)


def test_scan_reads_no_environment(tmp_path, capsys, monkeypatch):
    # LSEQ_JOBS once set the default worker count, and this value exited 2.
    plain, env = tmp_path / "plain.jsonl", tmp_path / "env.jsonl"
    argv = ["scan", "--kind", "l4-twins", "--n-max", "20", "--json", "--checkpoint"]
    code, out, err = run_cli(capsys, *argv, str(plain))
    assert (code, err) == (0, "")
    monkeypatch.setenv("LSEQ_JOBS", "zero")
    code, out_env, err = run_cli(capsys, *argv, str(env))
    assert (code, err) == (0, "")
    assert json_lines_without_elapsed(out_env) == json_lines_without_elapsed(out)
    assert json_lines_without_elapsed(env.read_text()) == json_lines_without_elapsed(plain.read_text())


def test_verify_paper_single_anchor(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "golden-values")
    assert code == 0
    assert "PASS  golden-values" in out
    assert "overall: PASS" in out


def test_verify_paper_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify-paper", "--only", "golden-values,product-identity", "--json"
    )
    assert code == 0
    lines = json_lines(out)
    checks = [l for l in lines if l["type"] == "check"]
    assert [c["anchor"] for c in checks] == ["golden-values", "product-identity"]
    assert all(c["pass"] for c in checks)
    assert lines[-1]["result"]["pass"] is True


def test_verify_paper_unknown_anchor(capsys):
    for only in ("nonsense", ""):  # an empty selection is not "all anchors"
        code, out, err = run_cli(capsys, "verify-paper", "--only", only)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: unknown anchors [{only!r}]") and err.count("\n") == 1


# The anchors call library functions through their defining modules, so a
# function replaced there is the one they run.
def test_verify_paper_failing_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(lfamily, "verify_theorem3", lambda k, n: False)
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "seven-power-orbit")
    assert code == 1
    assert out.splitlines()[1:] == [
        "FAIL  seven-power-orbit        fails at k=0, n=1",
        "overall: FAIL",
    ]


def test_verify_paper_sees_replaced_eval_exact(capsys, monkeypatch):
    monkeypatch.setattr(lfamily, "eval_exact", lambda family, n: 0)
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "golden-values")
    assert code == 1
    assert out.splitlines()[1].startswith("FAIL  golden-values            19 fixed values; wrong: ")
    assert out.splitlines()[-1] == "overall: FAIL"


def _failing_at(real, bad_args, value, record):
    """real, except that the call with bad_args returns (value, record)."""
    return lambda *args: (value, record) if args == bad_args else real(*args)


_GCD_FAILURES = [
    # (anchor, gcdlaws function, arguments of the failing call, FAIL detail)
    ("gcd-insularity-l1", "gcd_l1", (0, 1, 1), "mismatch at k=0, t1=1, t2=1"),
    ("gcd-insularity-l1", "gcd_l1", (2, 5, 7), "mismatch at k=2, t1=5, t2=7"),
    ("gcd-insularity-l1", "gcd_l1_cross", (0, 1, 1, 1), "cross gcd != 1 at k1=0, k2=1, t1=1, t2=1"),
    ("gcd-insularity-l1", "gcd_l1_cross", (3, 7, 1, 5), "cross gcd != 1 at k1=3, k2=1, t1=7, t2=5"),
    ("gcd-insularity-l3", "gcd_l3", (0, 1, 1, 1), "mismatch at m=0, n=1, t1=1, t2=1"),
    ("gcd-insularity-l3", "gcd_l3", (2, 3, 5, 25), "mismatch at m=2, n=3, t1=5, t2=25"),
    (
        "gcd-insularity-l3",
        "gcd_l3_cross",
        (0, 1, 1, 0, 2, 1),
        "cross gcd != 1 at (0, 1) x (0, 2), t1=1, t2=1",
    ),
    (
        "gcd-insularity-l3",
        "gcd_l3_cross",
        (1, 2, 5, 2, 4, 7),
        "cross gcd != 1 at (1, 2) x (2, 4), t1=5, t2=7",
    ),
]


@pytest.mark.parametrize("anchor, name, bad_args, detail", _GCD_FAILURES)
def test_verify_paper_gcd_anchor_failure_lines(capsys, monkeypatch, anchor, name, bad_args, detail):
    # A same-set pair whose gcd misses the prediction, or a cross pair with
    # gcd 7: the anchor stops at that pair and names it.
    real = getattr(gcdlaws, name)
    record = gcdlaws.GcdCheckRecord((1, 2), 7, 1)
    monkeypatch.setattr(gcdlaws, name, _failing_at(real, bad_args, 7, record))
    code, out, _ = run_cli(capsys, "verify-paper", "--only", anchor)
    assert code == 1
    assert out.splitlines()[1:] == [f"FAIL  {anchor:<24} {detail}", "overall: FAIL"]


def _spec_sha256(spec):
    return hashlib.sha256(
        json.dumps(spec, sort_keys=True, separators=(",", ":")).encode("ascii")
    ).hexdigest()


@pytest.mark.parametrize(
    "argv, field, value",
    [
        (["l4-twins", "--n-max", "12"], "n_max", "20"),
        (["l4-twins", "--n-max", "12"], "n_max", 20.0),
        (["l3-pow2", "--n-max", "6"], "n_max", True),
    ],
    ids=["n_max-str", "n_max-float", "n_max-true"],
)
def test_resume_mistyped_spec_field_exits_2(tmp_path, capsys, argv, field, value):
    # The header's spec_sha256 is recomputed, so only the field check can
    # catch the mistyped value.
    path = tmp_path / "scan.jsonl"
    code, _, _ = run_cli(
        capsys, "scan", "--kind", *argv, "--checkpoint", str(path), "--limit", "2"
    )
    assert code == 1
    lines = path.read_text(encoding="ascii").splitlines()
    header = json.loads(lines[0])
    header["spec"][field] = value
    header["spec_sha256"] = _spec_sha256(header["spec"])
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, out, err = run_cli(capsys, "resume", "--path", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"requires {field} >= " in err


def test_scan_past_the_bit_budget_exits_2_before_any_value(tmp_path, capsys, monkeypatch):
    # L3(2^25) needs 2^26 + 1 bits, one past the budget; the values before it
    # would take days, so the spec is refused before the first.
    monkeypatch.setattr(search, "_classify", lambda family, n: pytest.fail("value evaluated"))
    message = "scan kind 'l3_pow2' reaches values past the evaluation bit budget of 67108864 bits"
    code, out, err = run_cli(capsys, "scan", "--kind", "l3-pow2", "--n-max", "25")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    # A journal whose header spec was raised past the budget refuses to resume.
    path = tmp_path / "scan.jsonl"
    spec = {**search.ScanSpec(kind="l3_pow2", n_max=24).to_dict(), "n_max": 25}
    header = {"type": "header", "format": 2, "spec": spec, "spec_sha256": _spec_sha256(spec)}
    path.write_text(json.dumps(header) + "\n", encoding="ascii")
    code, out, err = run_cli(capsys, "resume", "--path", str(path))
    assert (code, out, err) == (2, "", f"error: invalid spec in checkpoint: {message}\n")


def _scan_under_a_memory_limit(*argv):
    """lseq scan with argv in a child process whose address space is capped
    at 1.5 GB."""
    resource = pytest.importorskip("resource")
    limit = 1_500_000_000

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lseq.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "lseq.cli", "scan", "--kind", *argv],
        capture_output=True, env=env, timeout=60, preexec_fn=cap_address_space,
    )


# Each would sieve the primes up to 10^11 before its first value; under an
# address-space limit that raised MemoryError.  Only ever run under the limit.
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["l2-prime-exponent", "--p-max", "100000000000"],
            "scan kind 'l2_prime_exponent' reaches values past the evaluation bit budget of 67108864 bits",
        ),
        (
            ["square-divisors", "--family", "L1", "--n-max", "10", "--p-max", "100000000000"],
            "scan kind 'square_divisors' requires p_max <= 33554432, got 100000000000",
        ),
    ],
    ids=["l2-prime-exponent", "square-divisors"],
)
def test_scan_of_an_unbounded_sieve_exits_2_under_a_memory_limit(argv, message):
    proc = _scan_under_a_memory_limit(*argv, "--limit", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", f"error: {message}\n".encode())


def test_scan_of_the_largest_twin_range_runs_one_record_under_a_memory_limit():
    # The largest n_max within the bit budget: 33,554,430 candidates, read
    # one index at a time, so a one-record run holds no list of them (a list
    # of tuples raised MemoryError here).  Both ways exit 1, as the scan is
    # incomplete, so the lines are what tells them apart.  Only ever run
    # under the limit.
    proc = _scan_under_a_memory_limit("l4-twins", "--n-max", "33554431", "--limit", "1", "--json")
    header, record, summary = map(json.loads, proc.stdout.decode("ascii").splitlines())
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert header["type"] == "header" and header["spec"]["n_max"] == 33554431
    assert (record["type"], record["pos"], record["index"]) == ("record", 0, [1])
    # The summary's integers are decimal strings in --json output.
    assert (summary["type"], summary["completed_through"], summary["total"]) == ("summary", "1", "33554430")
    assert summary["complete"] is False


@pytest.mark.parametrize(
    "argv, field",
    [
        (["l3-pow2", "--n-max", "1", "--m-max", "3"], "m_max"),
        (["l2-pow2", "--n-max", "3", "--family", "L1"], "family"),
    ],
    ids=["l3-pow2-m_max", "l2-pow2-family"],
)
def test_scan_rejects_field_the_kind_does_not_use(capsys, argv, field):
    code, out, err = run_cli(capsys, "scan", "--kind", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: scan kind '{argv[0].replace('-', '_')}' does not use {field}\n"


# sha256 of the table stdout and of the --json stdout (each line re-dumped
# without elapsed_ms), taken before the scan kinds moved into one table and
# re-taken when L1/L3 values above 2^64 got N-1 proofs: every --json header
# gained the fingerprint's "primality" key, and the l3-pow2 and l3-mixed
# records above 2^64 read euler_witness=A, rounds 1, not lucas_witness.  The
# --json digests were re-taken again when trial division above 2^64 grew to
# a bound sized to the value: every header's "primality" went from 2 to 3.
# They were re-taken once more when L2/L4 values above 2^64 got N+1 proofs:
# every header's "primality" went from 3 to 4, and the l4-twins records of
# L4(38), L4(45), L4(50) and L4(57) read llr:p=P, rounds 2, not bpsw+2r.
# And again when Sinclair's seven bases became the one witness set below
# 2^64: every header's "primality" went from 4 to 5; the primes L2(16)
# (l2-pow2) and L4(18) (l4-twins, twice) read the seven bases as their
# mr_deterministic list, and the base-2 strong pseudoprimes L3(18) (l3-mixed)
# and L1(27) (l1-pow3) read mr_witness=325, not 13 and 3.  The table
# lines of the prime kinds print the evidence, so the table digests of
# l2-pow2, l3-mixed and l1-pow3 were re-taken with them; the table has no
# header fingerprint, and the other table digests stood.  All sixteen were
# re-taken when BPSW lost its seeded rounds: the spec has no extra_rounds,
# the fingerprint no extra_rounds or seed, "format" and the fingerprint's
# "format" went from 1 to 2 and "primality" from 5 to 6, and the table
# header reads [version=V] alone.  No record line changed.
PINNED_SCANS = [
    (
        ["l2-prime-exponent", "--p-max", "200"],
        "c6ea4c4cb736862a76b3cf5e3d3bdc8c30d2e992d6a96028ce4b88c15cec53be",
        "aeb08dd9a39353a2cc3f6f730973d191eace277dbb1703e0ff8949a3a281c8bf",
    ),
    (
        ["l2-pow2", "--n-max", "8"],
        "558e8f263042a9dc301bd8d0385eb892769a3d74cb4754605fb89abe8cd5cdc2",
        "b4b501f85df76f24823ca8aab62a49fcb041d05a2a341e99dc66a0bf08aaaacb",
    ),
    (
        ["l3-pow2", "--n-max", "9"],
        "2e2bd535b4e94c8211cf682c48a11311b4a6f6609f0d75aefda12990a3afb6ff",
        "f1993a2906328b8b650e82a9a7747bdf9ef5e56d9bd7471d2a47454b9804eccc",
    ),
    (
        ["l3-mixed", "--m-max", "2", "--n-max", "3"],
        "5a1f63e7bdead7df5e23249d4294fefc0663aaf51e0f1155b75b7bffa410b53e",
        "35328cef2822aba4c0bd9ea735ea34d10077e447c8cf0bf33722740384dbe0a5",
    ),
    (
        ["l1-pow3", "--k-max", "4"],
        "898ed1326256d04f7741b6df2cff9a0cc9104a6ba1c849a502124cbdfcea129e",
        "99417463e0c0685e49facb1285bf91eb6b44498032ffd13b6bc9b8d4fc08a1b1",
    ),
    (
        ["l4-twins", "--n-max", "60"],
        "cdf7743ec21cb3d25fae0a293262108dd2e7f1fb53537becbcf7d33de3bbb8e5",
        "089e8093ed490e699f61510a94872f34d8c6b2f2ec979d960ad65f02512f52c6",
    ),
    (
        ["square-divisors", "--family", "L4", "--n-max", "130", "--p-max", "20"],
        "d0f14fa4eb0d430d361b52f104f56fb7e258831488161912a0aa66f9396cf93e",
        "1ea418b6c9eb519f998d9afad0e6e8b441a55a24c75374766fc12c3872519af0",
    ),
    (
        ["congruence-audit", "--n-max", "200"],
        "2c1273ae02028c3c5bbd4f92ada65062b160e232c5cf0824327eb775d1731726",
        "4ac8f4546c089192d6306abb22ea53b249e983080082a3570e8f98ed9a55dba6",
    ),
]


@pytest.mark.parametrize(
    "argv, table_sha, json_sha", PINNED_SCANS, ids=[argv[0] for argv, _, _ in PINNED_SCANS]
)
def test_scan_output_is_pinned(capsys, argv, table_sha, json_sha):
    code, table, _ = run_cli(capsys, "scan", "--kind", *argv)
    assert code == 0
    assert hashlib.sha256(table.encode("ascii")).hexdigest() == table_sha
    code, out, _ = run_cli(capsys, "scan", "--kind", *argv, "--json")
    assert code == 0
    lines = json_lines_without_elapsed(out)
    stripped = "".join(json.dumps(l, sort_keys=True, separators=(",", ":")) + "\n" for l in lines)
    assert hashlib.sha256(stripped.encode("ascii")).hexdigest() == json_sha


def test_docs_list_every_scan_kind(capsys):
    kinds = [kind.replace("_", "-") for kind in SCAN_KINDS]
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    listed = re.search(r"^Kinds: (.*?)\. Bounds", readme, re.MULTILINE | re.DOTALL)
    assert listed is not None
    assert re.findall(r"`([a-z0-9-]+)`", listed.group(1)) == kinds
    with pytest.raises(SystemExit) as exit_info:
        main(["scan", "--help"])
    assert exit_info.value.code == 0
    offered = re.search(r"--kind \{([^}]*)\}", capsys.readouterr().out)
    assert offered is not None
    assert offered.group(1).split(",") == kinds


def _digest(code, out, err):
    return hashlib.sha256(json.dumps([code, out, err]).encode("utf-8")).hexdigest()


# Every subcommand but the scans (pinned above) in both forms, and one error
# path (exit 2) each: sha256 of [exit code, stdout, stderr] for the table
# form and for --json, taken before the subcommands moved into one table.
# The prime-check and verify-paper digests were re-taken when BPSW lost its
# seeded rounds: their headers lost the seed=0 extra_rounds=2 provenance, and
# 2^127 - 1, checked without --extra-rounds and --seed, reads bpsw, rounds 2.
_FAST_CHECKS = (
    "golden-values,congruence-orbits,gcd-insularity-l1,gcd-insularity-l3,"
    "gcd-insularity-repunit,seven-power-orbit,product-identity,square-divisors"
)
PINNED_COMMANDS = [
    (["eval", "--family", "L1", "--n", "9"],
     "1347b0c7ca0297a2d90333ac4f97207615e9c162ea41f566fba7669acf0995b9",
     "68303fbf99ae53bf7bac65d899bede1cd3d4d1c71eb13c6ff3fc7ba2a0b08738"),
    (["eval", "--family", "L2", "--n", "100", "--digits-cap", "20"],
     "493d73cf169a146beb119fc6912abc0c5bb0c727d285368d8407443ba5ab7ca7",
     "1379292029deed3859b0b58779cf88f76697259b0b8c65a37d84efce0cd67a00"),
    (["eval", "--family", "L9", "--n", "3"],
     "683932ce907ba7145a35972d94e45c181133fd36efa7995108978b97f81107d9",
     "683932ce907ba7145a35972d94e45c181133fd36efa7995108978b97f81107d9"),
    (["residue", "--family", "L2", "--n", "16", "--m", "641"],
     "52ea4352381445f6321cdc2b24c1bd8bab69086ed5bd94b3df2fd3e72b17c587",
     "6d6e103ac539e46dbcd9b1a3f8403d9cd1405c1345551a402eb7fc083e0d1d21"),
    (["residue", "--family", "L1", "--n", "10", "--m", "0"],
     "7f0991b104c1e1ccc252b245b326907dff74b7a38957effb76fc3b1bb21ac534",
     "7f0991b104c1e1ccc252b245b326907dff74b7a38957effb76fc3b1bb21ac534"),
    (["prime-check", "--n", "262657"],
     "7c52a8879c5e9f721c7b319a999b864b24d82961ed7db08abbd19950eec7aaa8",
     "cff2a012963193cdc07eb8c1e8b4b4aabdc32368ee4f402488fae69faeab537a"),
    (["prime-check", "--n", str(2**127 - 1)],
     "3cff51402774d100ac5596d86c62de9222d749f536f269a6f5582f5c4b1854ab",
     "2b1980fb1b58c1c52e4bdb62eb83475c7d91aa57c735ee396a728ea6838c43ff"),
    (["prime-check", "--n", "x"],
     "ffdcb7b3fb8ed037922f8357004a60ed20e1b773f186dc6a53f0ffa174d7b195",
     "ffdcb7b3fb8ed037922f8357004a60ed20e1b773f186dc6a53f0ffa174d7b195"),
    (["order", "--a", "2", "--m", "73"],
     "3c32ae2b1359bb9ed5d852a25a2f749aa631791b2241bf7b434f51c5ea00bc7d",
     "d61d95270962063dd761e5ccba6dec9180ce7f26cae0bf279d0bb92f4ae64d46"),
    (["order", "--a", "6", "--m", "9"],
     "fa392e782a4d9faf093b8b16e8b751c71ee37639ef0e2a350e43e381d3969acb",
     "fa392e782a4d9faf093b8b16e8b751c71ee37639ef0e2a350e43e381d3969acb"),
    (["lemma2-witness", "--k", "3"],
     "d55634b649cf4f0b222305c36758e62604177bf69f7fcb6b665aefbe44dfbc0b",
     "9915e04249e092d91e41731c85827d68e28a04e8cadde8784f6f6ccad0b57f14"),
    (["lemma2-witness", "--k", "0"],
     "421a39beb5ebb69a7769bfe4d7b6ae62ea113ba509c8a769c0934340bfb37ea0",
     "421a39beb5ebb69a7769bfe4d7b6ae62ea113ba509c8a769c0934340bfb37ea0"),
    (["gcd-l1", "--k1", "1", "--t1", "5", "--k2", "1", "--t2", "7"],
     "d3c0adac14ff017a9d7b82e591df3465685b0ad1cd08cf2afe5e34e16b8ad443",
     "8a878ab0dea049887147bdfc6342af97bd15092ba341a99417f8c319508c7dbf"),
    (["gcd-l1", "--k1", "0", "--t1", "5", "--k2", "2", "--t2", "7"],
     "01a1c9208c6b1a8c0720200f56fd312b991a6160fdc86fb37f6cf838fd746475",
     "034f17358ccac1d2d63fea0199219a3d695d9315afaf599e1096a2bb1078d0cb"),
    (["gcd-l1", "--k1", "0", "--t1", "9", "--k2", "0", "--t2", "5"],
     "9ad0cb322b480b96b1b591459a0e4d062dcd0801adaa2ce1175f26c891ac3a7c",
     "9ad0cb322b480b96b1b591459a0e4d062dcd0801adaa2ce1175f26c891ac3a7c"),
    (["gcd-l3", "--m1", "0", "--n1", "2", "--t1", "5", "--m2", "0", "--n2", "2", "--t2", "7"],
     "b25658ab428f5e24da216e04625f0ae1e2f45b186fc7df494cc703e01efdac75",
     "a27710734551118745b1ea734e7a780b27f70a32fadf1939f6fe3ad42f355f1d"),
    (["gcd-l3", "--m1", "1", "--n1", "1", "--t1", "5", "--m2", "0", "--n2", "2", "--t2", "7"],
     "7a9453dca05b767cd0e89cbad27ca839f3014970b4d28347b36ea3dab15b3f9f",
     "262d51cde5dd075c8cdd483431bf95007d821269fc769616a8b6416495e9731b"),
    (["gcd-l3", "--m1", "0", "--n1", "2", "--t1", "3", "--m2", "0", "--n2", "2", "--t2", "7"],
     "01f4d3946ff0d891de7e92123137993d006656c7f22d6f874260c1303f4a9b78",
     "01f4d3946ff0d891de7e92123137993d006656c7f22d6f874260c1303f4a9b78"),
    (["gcd-repunit", "--b", "10", "--n", "6", "--m", "4", "--kind", "minus"],
     "ffbab4a678573c5402480b905b703eddc9110e431cbf16590df4b8d91667d5f9",
     "fc0afb3e67701152164fafaac2255e0d3c125fc6d7093e5e2d125739e1de6f40"),
    (["gcd-repunit", "--b", "3", "--n", "9", "--m", "15", "--kind", "plus"],
     "5359d47dc0d82abeb457f386504961fd6242194a1dd3664b34c0220edfb28e27",
     "aa99cd25a569ce15c2de6af6e11bf5cda779e7467ce7bb9bc9cdbd885a431891"),
    (["gcd-repunit", "--b", "1", "--n", "6", "--m", "4", "--kind", "minus"],
     "78009f95007cd8dbbe185421462fd5889f5925e353c55fc6233685163bf6174a",
     "78009f95007cd8dbbe185421462fd5889f5925e353c55fc6233685163bf6174a"),
    (["insularity", "--sequence", "L1", "--pow3", "2", "--pairs", "6", "--seed", "3"],
     "02726f461e03e33a33c09d77e5d05e1210cffba3257a05bd0afd3cb0f1147f99",
     "7aa67f883418aea8aecc912b85310df87d06503729b99c638d890d13fd08b42c"),
    (["insularity", "--sequence", "L3", "--pow3", "1", "--pow2", "2", "--pairs", "5"],
     "b136d634ba6ee1ef7ccab9288ecc47d78d0e261640d4cb05a19fb4b63a28b62d",
     "10048653351f373a2ca037b694fbf7080bbfabf9bf22d72d13b8a9f10ded18ab"),
    (["insularity", "--sequence", "repunit", "--b", "7", "--kind", "plus", "--bound", "60",
      "--pairs", "4"],
     "8d23f0228c69069e0f8d4d562c60fbaa5b6e0c000497a07054a01b1e8fff9d35",
     "5713e4bdb49993127f38da5b14b67688ed3420b9547585fd84dc2599a7fca069"),
    (["insularity", "--sequence", "L7"],
     "1b739dadcc016a74b0d0ebd569a06e24cd390510627144fd6dca5c865febdbb8",
     "1b739dadcc016a74b0d0ebd569a06e24cd390510627144fd6dca5c865febdbb8"),
    (["orbit", "--statement", "1", "--family", "L1", "--l", "10", "--p", "7", "--k-max", "25"],
     "7b404a20755f09d222635e2bd3c721e27ccc5e86c231307758b170293dc66ad6",
     "27562502d08ba55d90411cc21a4619b63697a3ce6f22f6bdc9d87b74bb48f14f"),
    (["orbit", "--statement", "2", "--family", "L2", "--l", "68", "--p", "11", "--t", "3",
      "--n-max", "3"],
     "3f58a32fad64fc412eda0c14413a2399a69abad9ad869e3ea22f803e0bda2d11",
     "ce43a5f180537e49528f74f092e77369c29a79956d9a9d9f9a24acf44627a1a4"),
    (["orbit", "--statement", "1", "--family", "L1", "--l", "3", "--p", "7", "--k-max", "5"],
     "2ddd38b0c01502280954ee2ad9bb49d56ce8d7929413aa5e0eed8bf6a1776b50",
     "2ddd38b0c01502280954ee2ad9bb49d56ce8d7929413aa5e0eed8bf6a1776b50"),
    (["theorem3", "--k", "2", "--n", "5"],
     "ba7d83762dcef0427da482da394fc5b97cfbefda403247f23154130d183ae23c",
     "30be54022e0cd29a2e7e182d0ac2e08c50a005f6e69b789586b30c74d9792f4c"),
    (["theorem3", "--k", "2", "--n", "6"],
     "4050ed9faf6e7270013e407d675c2e5cdc1220426789268d5be6d63e99425524",
     "4050ed9faf6e7270013e407d675c2e5cdc1220426789268d5be6d63e99425524"),
    (["product-identity", "--k", "3"],
     "54ae1114410c3d81846f6b56de0632b172c8f854d6c778de46b0c2677f08310b",
     "05e660456586a22b21ead0bce1c49184917950d5c0cad1c28d7ca339a8f51459"),
    (["product-identity", "--k", "7"],
     "ba05795c9908200919091afed3d032069dcbefabb477aa7841829dc31ecdef31",
     "ba05795c9908200919091afed3d032069dcbefabb477aa7841829dc31ecdef31"),
    (["repunit", "--b", "10", "--n", "5", "--kind", "minus"],
     "88d4d32054fa669cf0ac14f6b8784d4487301bd4303955c0495bdcf0cd10f523",
     "8f322f20f2edb2994cb45ded04f7f081aceeb1821cd5c0d919763a5ec4e528a4"),
    (["repunit", "--b", "1", "--n", "5", "--kind", "plus"],
     "78009f95007cd8dbbe185421462fd5889f5925e353c55fc6233685163bf6174a",
     "78009f95007cd8dbbe185421462fd5889f5925e353c55fc6233685163bf6174a"),
    (["scan", "--kind", "square-divisors", "--n-max", "10", "--p-max", "10"],
     "3d323360e3b3e494c9d84de155f393611a3e0df4221ba47ae7fa48c317b3c6c3",
     "3d323360e3b3e494c9d84de155f393611a3e0df4221ba47ae7fa48c317b3c6c3"),
    (["resume", "--path", "/nonexistent/scan.jsonl"],
     "6945d14c5740b400d197e19f00da29545838463cdab163e7c4e54912848e0efe",
     "6945d14c5740b400d197e19f00da29545838463cdab163e7c4e54912848e0efe"),
    (["verify-paper", "--only", _FAST_CHECKS],
     "83aa82549b5c00e9e0ea31310348402eb3b99fcaf0ac9b367d5c9999c20c5f87",
     "3cfa311e7f8248f3e8ac56f1e0973afc1e9331177bc002a51463f4851af32a3d"),
    # Re-taken when the gcd-all-pairs anchor joined the known anchors that
    # this error lists.
    (["verify-paper", "--only", "nonsense"],
     "248d9572108aa403b09fb5980913bf93bc1bfb68933d5cf05d90af05050c4fb9",
     "248d9572108aa403b09fb5980913bf93bc1bfb68933d5cf05d90af05050c4fb9"),
]


@pytest.mark.parametrize(
    "argv, table_sha, json_sha",
    PINNED_COMMANDS,
    ids=[f"{argv[0]}-{i}" for i, (argv, _, _) in enumerate(PINNED_COMMANDS)],
)
def test_command_output_is_pinned(capsys, argv, table_sha, json_sha):
    assert _digest(*run_cli(capsys, *argv)) == table_sha
    assert _digest(*run_cli(capsys, *argv, "--json")) == json_sha


def _argument_specs(parser):
    specs = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            specs.append(
                [[name, helps[name], _argument_specs(sub)] for name, sub in action.choices.items()]
            )
        else:
            specs.append([
                action.option_strings, action.dest, type(action).__name__,
                getattr(action.type, "__name__", None), action.default, action.required,
                action.choices, action.help,
            ])
    return specs


def test_argument_specs_are_pinned():
    # Flags, destinations, action, type, default, required, choices and help
    # of every subcommand, as taken before the subcommands moved into one
    # table; pinned instead of --help text, whose layout varies by Python.
    # scan's --seed has since gained a help text, checked here and then
    # taken out, so the pinned specs are the earlier ones.  Re-taken when
    # prime-check lost --seed and --extra-rounds and scan --extra-rounds: the
    # specs are the former ones without those three options.  Re-taken when
    # scan and resume came to share --jobs, --limit and --fsync: --jobs
    # defaults to 1 with a help text and follows scan's --checkpoint, and
    # resume's --jobs and --limit carry scan's help texts.
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {}
    for action in sub.choices["scan"]._actions:
        if action.dest == "seed":
            helps[action.dest], action.help = action.help, None
    assert helps == {"seed": "a label kept in the spec; changes no record"}
    specs = json.dumps(_argument_specs(parser))
    assert hashlib.sha256(specs.encode("utf-8")).hexdigest() == (
        "7a444b9063ecd4eb53b993a8b9ac8e7a9a5067db9978177c090617c3e1a09bf5"
    )


def test_a_launch_builds_the_options_of_its_subcommand_alone():
    # _build_parser(name) gives subcommand name the options _build_parser()
    # gives it, and every other subcommand none; all keep their help texts.
    def subparsers(parser):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    full = subparsers(_build_parser())
    for name in _COMMANDS:
        built = subparsers(_build_parser(name))
        assert list(built) == list(full)
        assert _argument_specs(built[name]) == _argument_specs(full[name]), name
        assert all(len(p._actions) == 1 for other, p in built.items() if other != name)
    assert _argument_specs(_build_parser("")) != _argument_specs(_build_parser())


@pytest.mark.parametrize("argv", [["bogus"], ["scan", "--json"], ["--json", "scan"], []])
def test_parse_errors_read_as_with_every_option_built(capsys, monkeypatch, argv):
    # An unknown subcommand, a scan without --kind, an option before the
    # subcommand and no argument at all exit 2 with the same stderr bytes as
    # the parser that builds every subcommand's options.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as full:
        _build_parser().parse_args(argv)
    expected = capsys.readouterr().err
    with pytest.raises(SystemExit) as launched:
        main(argv)
    assert (launched.value.code, capsys.readouterr().err) == (full.value.code, expected)
    assert full.value.code == 2 and expected.startswith("usage: lseq")


def test_docs_show_every_subcommand():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    usage = re.search(r"^## Command-line usage$(.*?)^## ", readme, re.MULTILINE | re.DOTALL)
    assert usage is not None
    shown = set(re.findall(r"^lseq ([a-z0-9-]+)", usage.group(1), re.MULTILINE))
    assert shown == set(_COMMANDS)
