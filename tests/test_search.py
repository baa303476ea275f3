"""Tests for the resumable scan engine: determinism, checkpoints, resume."""

import array
import functools
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from lseq.arith import is_prime, multiplicative_order, sieve_primes
from lseq import search
from lseq.lfamily import LFamily, builtin_congruence_rules, eval_exact, residue
from lseq.search import (
    SCAN_KINDS,
    ResumeError,
    ScanSpec,
    engine_fingerprint,
    resume,
    run_scan,
    scan_l4_twins,
    scan_square_divisors,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(kind="bogus")
    with pytest.raises(ValueError):
        ScanSpec(kind="l4_twins", family="L7")
    # BPSW has no seeded rounds to count, so a spec has no extra_rounds.
    with pytest.raises(TypeError):
        ScanSpec(kind="l4_twins", n_max=10, extra_rounds=2)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "l4_twins", "n_max": 5, "seed": True}, "seed must be an integer, got True"),
        (
            {"kind": "square_divisors", "family": 4, "n_max": 10, "p_max": 10},
            "family must be a string, got 4",
        ),
    ],
    ids=["seed-bool", "family-int"],
)
def test_spec_rejects_wrong_types(fields, message):
    with pytest.raises(ValueError) as info:
        ScanSpec(**fields)
    assert str(info.value) == message


# Each kind's bounds just below and just past the evaluation bit budget: the
# largest sequence index i must keep 2i + 1 <= 2^26.  These are never run.
# For l2_prime_exponent i is the largest prime up to p_max: 33,554,393 is the
# last below 2^25 and 33,554,467 the first above.
@pytest.mark.parametrize(
    "kind, below, past",
    [
        ("l2_pow2", {"n_max": 24}, {"n_max": 25}),
        ("l3_pow2", {"n_max": 24}, {"n_max": 25}),
        ("l1_pow3", {"k_max": 15}, {"k_max": 16}),
        ("l3_mixed", {"m_max": 1, "n_max": 23}, {"m_max": 1, "n_max": 24}),
        ("l3_mixed", {"m_max": 15, "n_max": 1}, {"m_max": 16, "n_max": 1}),
        ("l4_twins", {"n_max": 2**25 - 1}, {"n_max": 2**25}),
        ("l2_prime_exponent", {"p_max": 33_554_466}, {"p_max": 33_554_467}),
        ("l2_prime_exponent", {"p_max": 33_554_393}, {"p_max": 10**11}),
    ],
)
def test_spec_rejects_bounds_past_the_bit_budget(kind, below, past):
    ScanSpec(kind=kind, **below)
    with pytest.raises(ValueError) as info:
        ScanSpec(kind=kind, **past)
    assert str(info.value) == (
        f"scan kind {kind!r} reaches values past the evaluation bit budget of 67108864 bits"
    )


def test_spec_rejects_a_square_divisor_sieve_past_2_25():
    # square_divisors evaluates no value; its sieve of primes up to p_max is
    # bounded on its own.  Never run.
    ScanSpec(kind="square_divisors", family="L1", n_max=10, p_max=2**25)
    with pytest.raises(ValueError) as info:
        ScanSpec(kind="square_divisors", family="L1", n_max=10, p_max=2**25 + 1)
    assert str(info.value) == "scan kind 'square_divisors' requires p_max <= 33554432, got 33554433"


def test_scan_shorthands_reject_unknown_keywords():
    with pytest.raises(TypeError):
        scan_l4_twins(5, bogus=1)
    with pytest.raises(TypeError):
        scan_square_divisors("L1", 20, 12, bogus=1)
    # The seed is a spec label that changes no record; the shorthands take none.
    with pytest.raises(TypeError):
        scan_l4_twins(5, seed=1)


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
    assert [r.index for r in run_scan(ScanSpec(kind="l2_prime_exponent", p_max=12)).records] == [
        (2,), (3,), (5,), (7,), (11,),
    ]
    assert [r.index for r in run_scan(ScanSpec(kind="l3_pow2", n_max=3)).records] == [
        (0,), (1,), (2,), (3,),
    ]
    assert [r.index for r in run_scan(ScanSpec(kind="l2_pow2", n_max=3)).records] == [
        (1,), (2,), (3,),
    ]
    assert [r.index for r in run_scan(ScanSpec(kind="l1_pow3", k_max=2)).records] == [
        (0,), (1,), (2,),
    ]
    assert [r.index for r in scan_l4_twins(5).records] == [(1,), (2,), (3,), (4,)]
    assert [r.index for r in run_scan(ScanSpec(kind="l3_mixed", m_max=2, n_max=2)).records] == [
        (1, 1), (1, 2), (2, 1), (2, 2),
    ]
    assert [r.index for r in scan_square_divisors("L1", 20, 12).records] == [
        (3,), (5,), (7,), (11,),
    ]


def test_l2_pow2_full_range():
    # Every L2(2^k), k <= 17, up to 262,145 bits.  From k = 11 on, each has a
    # factor below 2^18 (L2(2^17) has 2,039), so no base-2 test runs past
    # 2049 bits; with trial division stopping at 1000 this took hours.
    start = time.perf_counter()
    report = run_scan(ScanSpec(kind="l2_pow2", n_max=17))
    assert time.perf_counter() - start < 10.0
    assert report.complete
    assert set(report.prime_indices()) == {1, 2, 4}


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
    report = run_scan(ScanSpec(kind="l2_prime_exponent", p_max=50))
    assert report.complete
    assert report.prime_indices() == [2, 3]
    for rec in report.records:
        assert rec.detail["sequence_index"] == rec.index[0]
        expected = is_prime(eval_exact(LFamily.L2, rec.index[0])).classification
        assert rec.verdict == expected
        if rec.verdict == "composite":
            assert rec.detail["evidence"]


def test_l3_pow2_and_l1_pow3_scans():
    assert run_scan(ScanSpec(kind="l3_pow2", n_max=6)).prime_indices() == [0, 1, 2, 5]
    assert run_scan(ScanSpec(kind="l1_pow3", k_max=4)).prime_indices() == [0, 1, 2]
    # l3_mixed indexes by exponent pairs
    report = run_scan(ScanSpec(kind="l3_mixed", m_max=2, n_max=3))
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


def test_square_divisor_walk_finds_the_order_and_roots():
    # The one walk of 2^l mod p gives what ord_p(2) and one residue per l gave.
    for family in LFamily:
        for record in scan_square_divisors(family, 1, 1000).records:
            p, detail = record.index[0], record.detail
            order = multiplicative_order(2, p).order
            assert detail["order"] == order, (family, p)
            assert detail["roots"] == [
                l for l in range(1, order + 1) if residue(family, l, p) == 0
            ], (family, p)


def test_congruence_audit():
    report = run_scan(ScanSpec(kind="congruence_audit", n_max=300))
    assert report.total == 8
    assert all(r.verdict == "holds" for r in report.records)
    assert all(r.detail["first_violation"] is None for r in report.records)
    only_l2 = run_scan(ScanSpec(kind="congruence_audit", n_max=100, family="L2"))
    assert only_l2.total == 2
    assert {r.detail["family"] for r in only_l2.records} == {"L2"}


def test_canonical_bytes_deterministic_across_jobs():
    a = scan_square_divisors("L3", 80, 14, jobs=1)
    b = scan_square_divisors("L3", 80, 14, jobs=3)
    assert a.canonical_bytes() == b.canonical_bytes()
    c = scan_l4_twins(40, jobs=4)
    d = scan_l4_twins(40, jobs=1)
    assert c.canonical_bytes() == d.canonical_bytes()


@pytest.mark.parametrize("n_max, jobs, spawned", [(4, 8, 3), (12, 2, 2)])
def test_pool_starts_no_more_workers_than_candidates(monkeypatch, n_max, jobs, spawned):
    from concurrent.futures import process

    count = []
    original = process.ProcessPoolExecutor._spawn_process

    def spy(self):
        count.append(1)
        original(self)

    monkeypatch.setattr(process.ProcessPoolExecutor, "_spawn_process", spy)
    spec = ScanSpec(kind="l4_twins", n_max=n_max)
    report = run_scan(spec, jobs=jobs)
    assert len(count) == spawned
    assert report.canonical_bytes() == run_scan(spec, jobs=1).canonical_bytes()


def test_resume_through_the_pool(tmp_path):
    path = str(tmp_path / "scan.jsonl")
    whole = str(tmp_path / "whole.jsonl")
    spec = ScanSpec(kind="l4_twins", n_max=60)
    baseline = run_scan(spec, jobs=1, checkpoint_path=whole)
    run_scan(spec, checkpoint_path=path, limit=17)
    resumed = resume(path, jobs=2)
    assert resumed.complete
    assert resumed.canonical_bytes() == baseline.canonical_bytes()

    def lines(name):
        with open(name, encoding="ascii") as handle:
            return [
                {k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
                for line in handle
            ]

    assert lines(path) == lines(whole)


def test_canonical_bytes_seed_sensitivity():
    # The seed is kept in the spec, so the bytes differ; the values reach
    # L4(60), past 2^64, where every verdict is a proof from the value alone,
    # so the records do not.
    reports = [run_scan(ScanSpec(kind="l4_twins", n_max=60, seed=seed)) for seed in (0, 1, 7)]
    assert len({report.canonical_bytes() for report in reports}) == len(reports)
    records = [json.loads(report.canonical_bytes())["records"] for report in reports]
    assert all(other == records[0] for other in records[1:])
    assert any(rec["detail"]["right"]["evidence"].startswith("llr:") for rec in records[0])


def test_journaled_scan_takes_one_digest(tmp_path, monkeypatch):
    # The header's spec_sha256 is the only digest: no candidate is hashed.
    digests = []
    real = search._sha256
    monkeypatch.setattr(search, "_sha256", lambda text: digests.append(text) or real(text))
    spec = ScanSpec(kind="l4_twins", n_max=60, seed=5)
    path = tmp_path / "scan.jsonl"
    run_scan(spec, checkpoint_path=str(path))
    assert digests == [spec.canonical()]
    header = json.loads(path.read_text().splitlines()[0])
    assert header["spec_sha256"] == real(spec.canonical())


# A small spec of each scan kind whose values, where it makes any, reach past
# 2^64.
_SMALL_SPECS = [
    {"kind": "l2_prime_exponent", "p_max": 100},
    {"kind": "l2_pow2", "n_max": 7},
    {"kind": "l3_pow2", "n_max": 7},
    {"kind": "l3_mixed", "m_max": 2, "n_max": 4},
    {"kind": "l1_pow3", "k_max": 4},
    {"kind": "l4_twins", "n_max": 40},
    {"kind": "square_divisors", "family": "L1", "n_max": 20, "p_max": 50},
    {"kind": "congruence_audit", "n_max": 20},
]


@pytest.mark.parametrize("source", ["_sha2", "_sha256", "hashlib"])
def test_spec_digest_is_sha256(monkeypatch, source):
    # The digest comes from CPython's C module (_sha2 from 3.12, _sha256
    # before), else from hashlib; each source runs here with the others
    # hidden.  The one this interpreter has also stands in for the one it lacks.
    try:
        import _sha2 as builtin
    except ImportError:
        import _sha256 as builtin
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, builtin if name == source else None)
    monkeypatch.setattr(search, "_sha256_new", functools.cache(search._sha256_new.__wrapped__))
    expected = hashlib.sha256 if source == "hashlib" else builtin.sha256
    assert search._sha256_new() is expected
    # hashlib is the reference: the FIPS 180-4 examples, ASCII text of every
    # length 0-130 (the padding takes a second block from 56 bytes and a
    # third from 120) and each kind's spec.
    fips = ["", "abc", "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"]
    lengths = ["".join(chr(32 + (7 * i + n) % 95) for i in range(n)) for n in range(131)]
    specs = [ScanSpec(**fields).canonical() for fields in _SMALL_SPECS]
    for text in fips + lengths + specs:
        assert search._sha256(text) == hashlib.sha256(text.encode("ascii")).hexdigest(), text


def test_small_specs_cover_every_kind():
    assert sorted(fields["kind"] for fields in _SMALL_SPECS) == sorted(SCAN_KINDS)


# Each kind's candidates as the list they were once built as, written out.
_LISTED_CANDIDATES = {
    "l2_prime_exponent": lambda s: [(p,) for p in sieve_primes(s.p_max)],
    "l2_pow2": lambda s: [(n,) for n in range(1, s.n_max + 1)],
    "l3_pow2": lambda s: [(n,) for n in range(s.n_max + 1)],
    "l3_mixed": lambda s: [(m, n) for m in range(1, s.m_max + 1) for n in range(1, s.n_max + 1)],
    "l1_pow3": lambda s: [(k,) for k in range(s.k_max + 1)],
    "l4_twins": lambda s: [(n,) for n in range(1, s.n_max)],
    "square_divisors": lambda s: [(p,) for p in sieve_primes(s.p_max) if p != 2],
    "congruence_audit": lambda s: [
        (fam_pos, rule_pos)
        for fam_pos, fam in enumerate(LFamily, 1)
        if s.family is None or fam.name == s.family
        for rule_pos in range(len(builtin_congruence_rules(fam)))
    ],
}


@pytest.mark.parametrize(
    "fields",
    _SMALL_SPECS
    + [
        {"kind": "l2_prime_exponent", "p_max": 2},
        {"kind": "l2_pow2", "n_max": 1},
        {"kind": "l3_pow2", "n_max": 0},
        {"kind": "l3_mixed", "m_max": 3, "n_max": 1},
        {"kind": "l3_mixed", "m_max": 1, "n_max": 3},
        {"kind": "l1_pow3", "k_max": 0},
        {"kind": "l4_twins", "n_max": 2},
        {"kind": "square_divisors", "family": "L2", "n_max": 1, "p_max": 3},
        {"kind": "congruence_audit", "family": "L3", "n_max": 1},
    ],
)
def test_candidates_are_the_listed_tuples_in_order(fields):
    spec = ScanSpec(**fields)
    candidates = search._KINDS[spec.kind].candidates(spec)
    listed = _LISTED_CANDIDATES[spec.kind](spec)
    assert list(candidates) == listed
    assert len(candidates) == len(listed)
    assert candidates[len(listed) // 2] == listed[len(listed) // 2]
    assert candidates[-1] == listed[-1]
    part = candidates[1:-1]
    assert (len(part), list(part)) == (len(listed[1:-1]), listed[1:-1])
    # The index and prime kinds read their candidates from a range or an
    # array of the primes rather than list them.
    if spec.kind in ("l2_prime_exponent", "l4_twins", "square_divisors"):
        assert type(candidates) is not list and type(part) is type(candidates)
    if spec.kind in ("l2_prime_exponent", "square_divisors"):
        assert type(candidates.values) is array.array


# Forks the code in argv[1] from this small interpreter, so that the child's
# peak RSS counts this interpreter's pages and not the test process's (Linux
# carries a peak across fork and exec), and prints its exit code and peak
# RSS in KiB.
_PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-S", "-c", sys.argv[1]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB after fork")
def test_prime_candidates_at_the_sieve_limit_fit_in_96_mib():
    # square_divisors at the largest p_max it accepts, 2^25: 2,063,688 odd
    # primes, which a list of ints held at a peak of 127 MiB.
    build = (
        "from lseq import search\n"
        "spec = search.ScanSpec(kind='square_divisors', family='L1', n_max=1, p_max=2**25)\n"
        "c = search._KINDS['square_divisors'].candidates(spec)\n"
        "assert (len(c), c[0], c[len(c) - 1]) == (2063688, (3,), (33554393,)), c\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(search.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PEAK_RSS, build],
        env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 96 * 1024, peak_kib


@pytest.mark.parametrize("fields", _SMALL_SPECS)
def test_no_scan_record_reads_bpsw(fields):
    # Every value a scan kind makes is below 2^64 or of L-form, so none
    # reaches BPSW: no record reads probable_prime, the one classification
    # only BPSW gives.
    report = run_scan(ScanSpec(**fields, seed=3))
    assert report.complete
    records = json.loads(report.canonical_bytes())["records"]
    assert len(records) == report.total
    assert [rec for rec in records if "probable_prime" in json.dumps(rec)] == []


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
    done = run_scan(ScanSpec(kind="l2_prime_exponent", p_max=30), checkpoint_path=path)
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


@pytest.mark.parametrize("order", [[0, 1, 2, 4, 5], [0, 2, 1, 3]], ids=["gap", "out-of-order"])
def test_resume_rejects_gap_or_disorder(tmp_path, order):
    # A journal without position 3 used to resume as if 3 had never run: it
    # then held positions 0, 1, 2, 4, 5, ..., 3, 4, ... and the next resume
    # refused it.
    path = tmp_path / "scan.jsonl"
    scan_l4_twins(12, checkpoint_path=str(path), limit=6)
    lines = path.read_text(encoding="ascii").splitlines()
    kept = [lines[0]] + [lines[1 + pos] for pos in order]
    path.write_text("\n".join(kept) + "\n", encoding="ascii")
    before = path.read_bytes()
    with pytest.raises(ResumeError, match=r"has a record at position \d where \d is next"):
        resume(str(path))
    assert path.read_bytes() == before


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
    # The spec, its seed included, is covered by the header's spec_sha256.
    assert engine_fingerprint() == {
        "engine": "lseq",
        "version": search.__version__,
        "format": 2,
        "deterministic_limit": 1 << 64,
        "primality": 6,
    }
    report = run_scan(ScanSpec(kind="l4_twins", n_max=5, seed=3))
    assert json.loads(report.canonical_bytes())["fingerprint"] == engine_fingerprint()


def test_limit_validation(tmp_path):
    with pytest.raises(ValueError):
        scan_l4_twins(10, limit=0)
    with pytest.raises(ValueError):
        scan_l4_twins(10, jobs=0)
