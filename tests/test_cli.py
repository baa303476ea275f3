"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import lseq
from lseq.cli import main
from lseq.search import SCAN_KINDS


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
# without elapsed_ms), taken before the scan kinds moved into one table.
PINNED_SCANS = [
    (
        ["l2-prime-exponent", "--p-max", "200"],
        "39d2797ecf19cd14f26aafaad5fb1740c3a1f314f4ef6dddb144f000fa6a7b60",
        "be32a9ba41d308f6c2c0fad7b5734514fe374cb6b30f33725dc3ae0a6c767686",
    ),
    (
        ["l2-pow2", "--n-max", "8"],
        "4253c12b256d5452e8403ca2adac3b0bdd4a3b283d27166030050f837c4d685d",
        "8d498111a5b54fb35f321f7a9d03795554ed4095016cccc10173958c00548d72",
    ),
    (
        ["l3-pow2", "--n-max", "9"],
        "f562afe4ea6c6947cd78236d4f20a1e7b640f43836922d335b80b5179438e2cb",
        "484e0a96c3cc19aa439b24e79a75a455f5fa386e799c73374d006291a70c46b8",
    ),
    (
        ["l3-mixed", "--m-max", "2", "--n-max", "3"],
        "612a32f4e6489a0481b4c2ad87ffbe1a40eb94bd2819a8efc1fb13eb214eac42",
        "90c456d45c28b2ff1eec17ce87f7094072dddf59c85fe4ed106a486f34c03b47",
    ),
    (
        ["l1-pow3", "--k-max", "4"],
        "52ddb13a3c1291e66512737dd59c9229e5dd7f6935e4cd3a7a3fdf3b3a4ef687",
        "89f9b8fc477f75426cf2353fb84f108a8d6b93fe77268a2e1f2803b5f0f32313",
    ),
    (
        ["l4-twins", "--n-max", "60"],
        "3b49cc24c908a74d1e637929511dd427a08193131ac33ad559df1eb7638438aa",
        "03eaface54c54d8da77c48c250af547547197eb07b69c85b876c3d47810f8ea3",
    ),
    (
        ["square-divisors", "--family", "L4", "--n-max", "130", "--p-max", "20"],
        "723fa20c3935b85e55553b16b1de5395c7cda999702d5391b87bcdc6463682a9",
        "f8a1aeffa266a5b92f860e059eb8a5074577a8047add2c57d354a045051b5e51",
    ),
    (
        ["congruence-audit", "--n-max", "200"],
        "ba1b9f028c1153ad216f924384fe26d56ec4879e8af460acedc5d4be547280c5",
        "7365d59088458e5622f702b64143f90ffb78e4ead9cec401b4e74f188216f634",
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
    lines = json_lines(out)
    for line in lines:
        line.pop("elapsed_ms", None)
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
