"""Tests for the resumable scan engine: determinism, checkpoints, resume."""

import json

import pytest

from lseq.arith import is_prime
from lseq.lfamily import LFamily, eval_exact, residue
from lseq.search import (
    ResumeError,
    ScanSpec,
    engine_fingerprint,
    resume,
    run_scan,
    scan_congruence_audit,
    scan_l1_pow3,
    scan_l2_prime_exponents,
    scan_l2_pow2,
    scan_l3_mixed,
    scan_l3_pow2,
    scan_l4_twins,
    scan_square_divisors,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(kind="bogus")
    with pytest.raises(ValueError):
        ScanSpec(kind="l4_twins", family="L7")
    with pytest.raises(ValueError):
        ScanSpec(kind="l4_twins", n_max=10, extra_rounds=-1)


def test_spec_serialization_round_trip():
    spec = ScanSpec(kind="square_divisors", family="L2", n_max=40, p_max=12, seed=9)
    assert ScanSpec.from_dict(spec.to_dict()) == spec
    assert spec.sha256() == ScanSpec.from_dict(spec.to_dict()).sha256()
    other = ScanSpec(kind="square_divisors", family="L2", n_max=40, p_max=12, seed=10)
    assert spec.sha256() != other.sha256()


def test_spec_from_dict_rejects_unknown_fields():
    data = ScanSpec(kind="l4_twins", n_max=5).to_dict()
    data["surprise"] = 1
    with pytest.raises(ResumeError):
        ScanSpec.from_dict(data)


def test_run_requires_bounds():
    with pytest.raises(ValueError):
        run_scan(ScanSpec(kind="l4_twins"))
    with pytest.raises(ValueError):
        run_scan(ScanSpec(kind="square_divisors", n_max=10, p_max=10))


def test_candidate_enumeration():
    assert [r.index for r in scan_l2_prime_exponents(12).records] == [
        (2,), (3,), (5,), (7,), (11,),
    ]
    assert [r.index for r in scan_l3_pow2(3).records] == [(0,), (1,), (2,), (3,)]
    assert [r.index for r in scan_l2_pow2(3).records] == [(1,), (2,), (3,)]
    assert [r.index for r in scan_l1_pow3(2).records] == [(0,), (1,), (2,)]
    assert [r.index for r in scan_l4_twins(5).records] == [(1,), (2,), (3,), (4,)]
    assert [r.index for r in scan_l3_mixed(2, 2).records] == [
        (1, 1), (1, 2), (2, 1), (2, 2),
    ]
    assert [r.index for r in scan_square_divisors("L1", 20, 12).records] == [
        (3,), (5,), (7,), (11,),
    ]


def test_l4_twin_pairs():
    report = scan_l4_twins(30)
    twins, flagged = report.twin_pairs()
    assert twins == [(4, 5), (9, 10)]
    assert flagged == [(1, 2)]
    by_index = {r.index: r for r in report.records}
    assert by_index[(4,)].verdict == "twin"
    assert by_index[(1,)].verdict == "unit_twin"
    assert by_index[(1,)].detail["left"]["classification"] == "unit"
    assert by_index[(2,)].verdict == "not_twin"


def test_l2_prime_exponent_records():
    report = scan_l2_prime_exponents(50)
    assert report.complete
    assert report.prime_indices() == [2, 3]
    for rec in report.records:
        assert rec.detail["sequence_index"] == rec.index[0]
        expected = is_prime(eval_exact(LFamily.L2, rec.index[0])).classification
        assert rec.verdict == expected
        if rec.verdict == "composite":
            assert rec.detail["evidence"]


def test_l3_pow2_and_l1_pow3_scans():
    assert scan_l3_pow2(6).prime_indices() == [0, 1, 2, 5]
    assert scan_l1_pow3(4).prime_indices() == [0, 1, 2]
    # l3_mixed indexes by exponent pairs
    report = scan_l3_mixed(2, 3)
    assert report.prime_indices() == []
    for rec in report.records:
        m, n = rec.index
        expected = is_prime(eval_exact(LFamily.L3, 3**m * 2**n)).classification
        assert rec.verdict == expected


def test_square_divisor_scan_details():
    report = scan_square_divisors("L4", 130, 12)
    assert report.square_hits() == [(13, 11, 2), (42, 11, 2), (123, 11, 2)]
    by_prime = {r.index[0]: r for r in report.records}
    assert by_prime[11].detail["order"] == 10
    assert by_prime[11].detail["roots"] == [2, 3]
    assert by_prime[11].verdict == "hits"
    assert by_prime[3].verdict == "none"
    assert by_prime[3].detail["hits"] == []


def test_square_divisor_scan_matches_bruteforce():
    for family in LFamily:
        report = scan_square_divisors(family, 60, 12)
        expected = []
        for p in (3, 5, 7, 11):
            for n in range(1, 61):
                if residue(family, n, p * p) != 0:
                    continue
                e = 2
                while residue(family, n, p ** (e + 1)) == 0:
                    e += 1
                expected.append((n, p, e))
        expected.sort(key=lambda h: (h[1], h[0]))
        assert report.square_hits() == expected


def test_square_hits_obey_root_classes():
    report = scan_square_divisors("L2", 130, 12)
    assert report.square_hits() == [(68, 11, 3), (97, 11, 2)]
    detail = next(r.detail for r in report.records if r.index == (11,))
    for n, _ in detail["hits"]:
        assert n % detail["order"] in detail["roots"]


def test_congruence_audit():
    report = scan_congruence_audit(300)
    assert report.total == 8
    assert all(r.verdict == "holds" for r in report.records)
    assert all(r.detail["first_violation"] is None for r in report.records)
    only_l2 = scan_congruence_audit(100, family="L2")
    assert only_l2.total == 2
    assert {r.detail["family"] for r in only_l2.records} == {"L2"}


def test_canonical_bytes_deterministic_across_jobs():
    a = scan_square_divisors("L3", 80, 14, jobs=1)
    b = scan_square_divisors("L3", 80, 14, jobs=3)
    assert a.canonical_bytes() == b.canonical_bytes()
    c = scan_l4_twins(40, jobs=4)
    d = scan_l4_twins(40, jobs=1)
    assert c.canonical_bytes() == d.canonical_bytes()


def test_canonical_bytes_seed_sensitivity():
    a = scan_l4_twins(20, seed=0)
    b = scan_l4_twins(20, seed=1)
    assert a.canonical_bytes() != b.canonical_bytes()
    assert [r.verdict for r in a.records] == [r.verdict for r in b.records]


def test_checkpoint_write_and_resume(tmp_path):
    path = str(tmp_path / "scan.jsonl")
    baseline = scan_l4_twins(25)
    partial = scan_l4_twins(25, checkpoint_path=path, limit=9)
    assert not partial.complete
    assert partial.completed_through == 9

    with open(path, encoding="ascii") as handle:
        lines = [json.loads(line) for line in handle]
    assert lines[0]["type"] == "header"
    assert lines[0]["spec"]["kind"] == "l4_twins"
    assert [line["type"] for line in lines[1:]] == ["record"] * 9
    assert lines[2]["pos"] == 1

    resumed = resume(path)
    assert resumed.complete
    assert resumed.canonical_bytes() == baseline.canonical_bytes()


def test_resume_in_stages(tmp_path):
    path = str(tmp_path / "scan.jsonl")
    baseline = scan_square_divisors("L1", 60, 10)
    scan_square_divisors("L1", 60, 10, checkpoint_path=path, limit=1)
    mid = resume(path, limit=1)
    assert not mid.complete
    final = resume(path)
    assert final.complete
    assert final.canonical_bytes() == baseline.canonical_bytes()


def test_resume_of_complete_scan_is_idempotent(tmp_path):
    path = str(tmp_path / "scan.jsonl")
    done = scan_l2_prime_exponents(30, checkpoint_path=path)
    assert done.complete
    size = (tmp_path / "scan.jsonl").stat().st_size
    again = resume(path)
    assert again.complete
    assert again.canonical_bytes() == done.canonical_bytes()
    assert (tmp_path / "scan.jsonl").stat().st_size == size


def test_run_refuses_existing_checkpoint(tmp_path):
    path = str(tmp_path / "scan.jsonl")
    scan_l4_twins(10, checkpoint_path=path, limit=2)
    with pytest.raises(ValueError):
        scan_l4_twins(10, checkpoint_path=path)


def test_resume_tolerates_torn_final_line(tmp_path):
    path = str(tmp_path / "scan.jsonl")
    baseline = scan_l4_twins(20)
    scan_l4_twins(20, checkpoint_path=path, limit=6)
    with open(path, "a", encoding="ascii") as fh:
        fh.write('{"detail":{"left":{"classifi')
    resumed = resume(path)
    assert resumed.complete
    assert resumed.canonical_bytes() == baseline.canonical_bytes()


def test_resume_after_torn_line_makes_progress(tmp_path):
    # Appending right after a torn fragment fused it with the next record, so
    # every later resume stopped at that line and redid the same candidates.
    path = tmp_path / "scan.jsonl"
    scan_l4_twins(60, checkpoint_path=str(path), limit=10)
    raw = path.read_text(encoding="ascii")
    path.write_text(raw[:-7], encoding="ascii")  # tears record 9
    assert resume(str(path), limit=10).completed_through == 19
    assert resume(str(path), limit=10).completed_through == 29
    final = resume(str(path))
    assert final.canonical_bytes() == scan_l4_twins(60).canonical_bytes()
    for line in path.read_text(encoding="ascii").splitlines():
        json.loads(line)


def test_resume_reads_journal_with_cursor_lines(tmp_path):
    # Older journals carry a {"completed_through": pos + 1, "type": "cursor"}
    # line after each record; this rebuilds one and resumes it.
    path = tmp_path / "scan.jsonl"
    scan_l4_twins(40, checkpoint_path=str(path), limit=12)
    lines = []
    for line in path.read_text(encoding="ascii").splitlines():
        lines.append(line)
        entry = json.loads(line)
        if entry["type"] == "record":
            cursor = {"completed_through": entry["pos"] + 1, "type": "cursor"}
            lines.append(json.dumps(cursor, sort_keys=True, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert resume(str(path)).canonical_bytes() == scan_l4_twins(40).canonical_bytes()


def test_resume_rejects_invalid_line_before_the_end(tmp_path):
    path = tmp_path / "scan.jsonl"
    scan_l4_twins(20, checkpoint_path=str(path), limit=6)
    lines = path.read_text(encoding="ascii").splitlines()
    lines[3] = lines[3][:-5]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ResumeError, match="line 4 is not valid JSON"):
        resume(str(path))


def test_resume_rejects_duplicate_position(tmp_path):
    # A second record for position 0 used to replace the first silently.
    path = tmp_path / "scan.jsonl"
    scan_l4_twins(12, checkpoint_path=str(path), limit=4)
    lines = path.read_text(encoding="ascii").splitlines()
    record = json.loads(lines[1])
    record["verdict"] = "twin"
    lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ResumeError, match="two records at position 0"):
        resume(str(path))


def test_resume_rejects_tampered_spec(tmp_path):
    path = str(tmp_path / "scan.jsonl")
    scan_l4_twins(12, checkpoint_path=path, limit=3)
    with open(path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    header = json.loads(lines[0])
    header["spec"]["n_max"] = 13
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ResumeError):
        resume(path)


def test_resume_rejects_foreign_fingerprint(tmp_path):
    path = str(tmp_path / "scan.jsonl")
    scan_l4_twins(12, checkpoint_path=path, limit=3)
    with open(path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    header = json.loads(lines[0])
    header["fingerprint"]["version"] = "99.0.0"
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ResumeError):
        resume(path)


def test_resume_rejects_missing_or_bad_header(tmp_path):
    path = tmp_path / "scan.jsonl"
    path.write_text("")
    with pytest.raises(ResumeError):
        resume(str(path))
    path.write_text('{"type":"cursor","completed_through":1}\n')
    with pytest.raises(ResumeError):
        resume(str(path))


def test_fingerprint_contents():
    spec = ScanSpec(kind="l4_twins", n_max=5, seed=3)
    fp = engine_fingerprint(spec)
    assert fp["engine"] == "lseq"
    assert fp["seed"] == 3
    assert fp["deterministic_limit"] == 1 << 64


def test_limit_validation(tmp_path):
    with pytest.raises(ValueError):
        scan_l4_twins(10, limit=0)
    with pytest.raises(ValueError):
        scan_l4_twins(10, jobs=0)
