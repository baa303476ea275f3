"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import lseq
from lseq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


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

    code, out, _ = run_cli(
        capsys, "prime-check", "--n", str(2**127 - 1), "--extra-rounds", "4", "--json"
    )
    assert code == 0
    result = json_lines(out)[-1]["result"]
    assert result["classification"] == "probable_prime"
    assert result["rounds"] == "6"


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


def test_lseq_jobs_env(tmp_path, capsys, monkeypatch):
    code, solo, _ = run_cli(
        capsys, "scan", "--kind", "square-divisors", "--family", "L3",
        "--n-max", "60", "--p-max", "10", "--json",
    )
    assert code == 0
    monkeypatch.setenv("LSEQ_JOBS", "2")
    code, multi, _ = run_cli(
        capsys, "scan", "--kind", "square-divisors", "--family", "L3",
        "--n-max", "60", "--p-max", "10", "--json",
    )
    assert code == 0
    assert solo == multi
    monkeypatch.setenv("LSEQ_JOBS", "zero")
    code, _, err = run_cli(
        capsys, "scan", "--kind", "l4-twins", "--n-max", "10", "--json"
    )
    assert code == 2
    assert "LSEQ_JOBS" in err


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
    code, _, err = run_cli(capsys, "verify-paper", "--only", "nonsense")
    assert code == 2
    assert "unknown" in err
