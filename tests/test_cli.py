from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from superx.c5 import c5_named_catalog
from superx.cache import FORMAT_VERSION, cache_path, load_table, resolve_cache_dir, save_table
import superx.c5 as c5
import superx.cache as cache
import superx.cli as cli
import superx.families as families
import superx.semigroups as semigroups
import superx.superext as superext
import superx.verify as verify
from superx.cli import (
    EXIT_CAPACITY,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    cmd_c5_t17,
    cmd_explore_sl,
    cmd_invariant,
    cmd_lambda,
    cmd_sl_table,
    cmd_verify_paper,
    main,
)
from superx.errors import ConsistencyError
from superx.expected import SL_TABLE
from superx.families import SetFamily, enumerate_mls
from superx.groups import _make_group, build_group, is_odd_group
from superx.invariants import enumerate_invariant_mls, odd_equivalences
from superx.semigroups import SemigroupTable, left_zeros, right_zeros, sampled_associative, zero
from superx.superext import build_lambda_table, orbit_quotient
from oracles import cache_digest, fresh_interpreter, traced_peak


def test_report_json_round_trip():
    report = cmd_invariant("C6")
    loaded = json.loads(report.to_json())
    assert loaded == report.to_dict()
    assert set(loaded) == {"command", "group", "status", "payload", "elapsed_ms"}


def test_sl_table_report_rows():
    report = cmd_sl_table()
    assert len(report.payload["rows"]) == 24
    assert report.status == "fail"  # the known D10 reference defect
    mism = [r for r in report.payload["rows"] if not r["match"]]
    assert [r["group"] for r in mism] == ["D10"]
    by_group = {r["group"]: r["computed"] for r in report.payload["rows"]}
    assert by_group["D12"] == 5
    assert by_group["C2"] == 2


def test_sl_table_max_order_filter():
    report = cmd_sl_table(max_order=8)
    assert all(r["order"] <= 8 for r in report.payload["rows"])
    assert report.status == "pass"


def test_lambda_count_command():
    report = cmd_lambda("C6", "count")
    assert report.payload["count"] == 2646
    assert report.payload["orbit_count"] == 447
    assert report.status == "pass"
    report = cmd_lambda("C1", "count")
    assert report.payload["count"] == 1 and report.payload["orbit_count"] == 1
    report = cmd_lambda("D6", "count")
    assert report.payload["count"] == 2646
    assert "expected_orbit_count" not in report.payload
    assert report.status == "pass"


def test_lambda_structure_command():
    report = cmd_lambda("C5", "structure")
    payload = report.payload
    assert payload["zero"] == "Z"
    assert sorted(payload["idempotents"]) == sorted(["U", "Z", "Λ4", "Λ", "2Λ"])
    assert payload["minimal_ideal"] == ["Z"]
    assert payload["central_count"] == 6
    assert not payload["commutative"]
    assert payload["transversal"] is None
    assert payload["subgroup_orders"] == {"U": 5, "Λ4": 5, "Λ": 5, "2Λ": 5, "Z": 1}


def test_lambda_structure_scans_the_centre_once(monkeypatch):
    """One central_elements call on lambda(C6), none on the commutative lambda(C4), whichever module reads it."""
    calls = Counter()
    for module in (cli, semigroups):
        fn = module.central_elements
        monkeypatch.setattr(module, "central_elements", lambda table, _fn=fn: calls.update([table.order]) or _fn(table))
    assert cmd_lambda("C6", "structure").payload["central_count"] == 6
    payload = cmd_lambda("C4", "structure").payload
    assert payload["commutative"] and payload["central_count"] == payload["count"] == 12
    assert calls == {2646: 1}


def test_lambda_structure_names_only_what_it_prints(monkeypatch):
    """lambda C6 --what=structure serializes only the systems its report prints, each once."""
    calls = []
    serialize = SetFamily.serialize
    monkeypatch.setattr(SetFamily, "serialize", lambda s: calls.append(s) or serialize(s))
    payload = cmd_lambda("C6", "structure").payload
    printed = payload["idempotents"] + [payload["zero"]] + payload["witness"] + (payload["minimal_ideal"] or [])
    assert [serialize(s) for s in calls] == [name for name in printed if name is not None]
    assert list(payload["subgroup_orders"]) == payload["idempotents"]


def test_lambda_structure_validates_only_the_group_and_lambda_tables(monkeypatch):
    """lambda C6 --what=structure constructs two tables, C6 and lambda(C6), and no per-subgroup table."""
    built = []
    post_init = SemigroupTable.__post_init__
    monkeypatch.setattr(SemigroupTable, "__post_init__", lambda t: built.append(t.name) or post_init(t))
    cmd_lambda("C6", "structure")
    assert built == ["C6", "lambda(C6)"]


def test_closed_pipe_keeps_the_exit_code(tmp_path):
    """A reader that is gone before the output is written leaves exit 0 and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = ["-m", "superx.cli", "lambda", "C3", "--what=table", f"--cache-dir={tmp_path}"]
    try:
        proc = fresh_interpreter(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


def test_no_command_imports_masked_arrays(tmp_path):
    """No command imports numpy.ma (about 2 MB), which np.setdiff1d and a plain np.unique load; is_commutative relies on this."""
    runs = [
        ["lambda", "C4", "--what=structure"],
        ["lambda", "C6", "--what=structure"],
        ["lambda", "C6", "--what=table", f"--cache-dir={tmp_path}"],
        ["lambda", "C5", "--what=count"],
        ["invariant", "C6"],
        ["invariant", "D10", "--allow-large"],
        ["verify-paper", "--scope=all"],
        ["sl-table"],
        ["explore-sl", "--max-n", "8"],
        ["c5-t17"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from superx.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = fresh_interpreter(["-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # verify-paper and sl-table hold the D10 reference row
    codes = [EXIT_MISMATCH if argv[0] in ("verify-paper", "sl-table") else EXIT_OK for argv in runs]
    assert proc.stdout == f"{codes} False\n"


def _blas_start_up(threads, code):
    """What a fresh interpreter prints after code, started with OPENBLAS_NUM_THREADS set to threads (None: unset)."""
    proc = fresh_interpreter(["-c", code], {"OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_superx_starts_its_blas_on_one_thread():
    """Importing superx.cli sets OPENBLAS_NUM_THREADS to 1 before numpy loads, so the process starts no BLAS worker."""
    code = "import os\nimport superx.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    want = ["1"]
    if sys.platform.startswith("linux"):  # one entry per thread of the process
        code += "print(len(os.listdir('/proc/self/task')))\n"
        want.append("1")
    assert _blas_start_up(None, code) == want


def test_superx_leaves_a_caller_set_or_numpy_first_blas_alone():
    """A value the caller set wins, and once numpy is loaded superx sets nothing."""
    show = "import os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    assert _blas_start_up("2", "import superx.cli\n" + show) == ["2"]
    assert _blas_start_up(None, "import numpy\nimport superx.cli\n" + show) == ["None"]


def test_lambda_table_cache_round_trip(tmp_path):
    report = cmd_lambda("C4", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    path = cache_path(tmp_path, "C4")
    assert report.payload["cache_file"] == str(tmp_path / f"C4-table-{FORMAT_VERSION}.npy") == str(path)
    first = path.read_bytes()
    report2 = cmd_lambda("C4", "table", cache_dir=str(tmp_path))
    assert report2.payload["cache_hit"]
    assert path.read_bytes() == first
    assert report2.payload["matrix"] == report.payload["matrix"]
    assert report2.payload["elements"] == report.payload["elements"]


def test_lambda_table_cache_corruption_recomputes(tmp_path):
    cmd_lambda("C3", "table", cache_dir=str(tmp_path))
    path = cache_path(tmp_path, "C3")
    original = path.read_bytes()
    flipped = bytearray(original)
    flipped[-4] ^= 1  # low byte of the last cell: still an index in range
    for corrupted in (bytes(flipped), original[:-1], original + b"\0"):  # a flipped, a missing, an appended byte
        path.write_bytes(corrupted)
        report = cmd_lambda("C3", "table", cache_dir=str(tmp_path))
        assert not report.payload["cache_hit"]
        assert path.read_bytes() == original


def test_cache_header_and_loaders(tmp_path):
    g = build_group("C3")
    table = build_lambda_table(g)
    path = save_table(tmp_path, g, table)
    head, _, payload = path.read_bytes().partition(b"\n")
    fields = head.split()
    assert fields[:3] == [b"superx-cache", FORMAT_VERSION.encode(), b"C3"] and len(fields[3]) == 64
    assert payload.startswith(b"\x93NUMPY")
    loaded = load_table(tmp_path, g)
    assert loaded is not None
    assert (loaded.product == table.product).all()
    assert loaded.elements is table.elements and loaded.name == table.name  # the enumerator's one shared sequence
    assert load_table(tmp_path / "missing", g) is None


def _relabelled_c4():
    """C4 under its own name with elements 1 and 2 swapped: another layout."""
    swap = [0, 2, 1, 3]
    return _make_group("C4", [[swap[(swap[a] + swap[b]) % 4] for b in range(4)] for a in range(4)], "0123")


def test_cache_entry_for_another_group_layout_is_rebuilt(tmp_path, monkeypatch):
    c4 = cmd_lambda("C4", "table", cache_dir=str(tmp_path)).payload["matrix"]
    relabelled = _relabelled_c4()
    monkeypatch.setattr(cli, "build_group", lambda name: relabelled)
    report = cmd_lambda("C4", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    assert report.payload["matrix"] == build_lambda_table(relabelled).product.tolist() != c4
    assert cmd_lambda("C4", "table", cache_dir=str(tmp_path)).payload["cache_hit"]


def test_cache_entry_from_another_enumerator_is_rebuilt(tmp_path, monkeypatch):
    first = cmd_lambda("C4", "table", cache_dir=str(tmp_path)).payload
    systems = enumerate_mls(4)
    reordered = families._SystemList(systems.words[::-1], 4)  # families and words together, as one source
    for module in (superext, cache):  # the builder and the loader with its digest
        monkeypatch.setattr(module, "enumerate_mls", lambda n: reordered)
    report = cmd_lambda("C4", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    assert report.payload["elements"] == first["elements"][::-1]
    # the same semigroup, indexed the other way round
    last = len(systems) - 1
    assert report.payload["matrix"] == [
        [last - first["matrix"][last - a][last - b] for b in range(last + 1)] for a in range(last + 1)
    ]


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append("unpickled")


class _Tripwire:
    """Records being unpickled."""

    def __reduce__(self):
        return (_record_unpickling, ())


def test_cache_never_unpickles_a_payload(tmp_path):
    g = build_group("C2")
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.array([[_Tripwire()] * 2] * 2, dtype=object), allow_pickle=True)
    npy = buf.getvalue()
    path = cache_path(tmp_path, "C2")
    path.write_bytes(f"superx-cache {FORMAT_VERSION} C2 {cache_digest(g, npy)}\n".encode() + npy)
    assert load_table(tmp_path, g) is None
    assert _UNPICKLED == []
    report = cmd_lambda("C2", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    assert load_table(tmp_path, g) is not None
    np.lib.format.read_array(io.BytesIO(npy), allow_pickle=True)
    assert _UNPICKLED  # the payload does run code when unpickled


def test_cache_rebuilds_an_int32_entry(tmp_path):
    """An entry with an int32 payload and a valid digest is a miss, as a save writes only uint16, and is rebuilt."""
    g = build_group("C3")
    table = build_lambda_table(g)
    buf = io.BytesIO()
    np.lib.format.write_array(buf, table.product.astype(np.int32), allow_pickle=False)
    npy = buf.getvalue()
    path = cache_path(tmp_path, "C3")
    written = f"superx-cache {FORMAT_VERSION} C3 {cache_digest(g, npy)}\n".encode() + npy
    path.write_bytes(written)
    assert load_table(tmp_path, g) is None
    report = cmd_lambda("C3", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    assert report.payload["matrix"] == table.product.tolist()
    assert path.read_bytes() != written
    assert cmd_lambda("C3", "table", cache_dir=str(tmp_path)).payload["cache_hit"]


@pytest.mark.parametrize(
    "header, shape, npy_version",
    [
        (f"superx-cache {FORMAT_VERSION} C4 {{digest}}", None, None),
        ("superx-cache v1 C3 {digest}", None, None),
        (f"superx-cache {FORMAT_VERSION} C3", None, None),
        (f"superx-cache {FORMAT_VERSION} C3 {{digest}}", (2, 2), None),
        (f"superx-cache {FORMAT_VERSION} C3 {{digest}}", None, (2, 0)),
    ],
    ids=["other-group", "other-version", "no-digest", "wrong-shape", "npy-2.0"],
)
def test_cache_rejects_a_foreign_header_or_a_misshapen_payload(tmp_path, header, shape, npy_version):
    """An entry whose payload digest is valid is a miss, then rebuilt, if its header, table shape or NPY format is not.

    A save writes NPY format 1.0.
    """
    g = build_group("C3")
    table = build_lambda_table(g)
    product = table.product if shape is None else np.zeros(shape, dtype=np.uint16)
    buf = io.BytesIO()
    np.lib.format.write_array(buf, product, version=npy_version, allow_pickle=False)
    npy = buf.getvalue()
    path = cache_path(tmp_path, "C3")
    written = f"{header.format(digest=cache_digest(g, npy))}\n".encode() + npy
    path.write_bytes(written)
    assert load_table(tmp_path, g) is None
    report = cmd_lambda("C3", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    assert report.payload["matrix"] == table.product.tolist()
    assert path.read_bytes() != written
    assert cmd_lambda("C3", "table", cache_dir=str(tmp_path)).payload["cache_hit"]


def test_cache_payload_is_two_bytes_per_cell(tmp_path, lam_table):
    path = save_table(tmp_path, build_group("C6"), lam_table("C6"))
    with open(path, "rb") as fh:
        fh.readline()
        np.lib.format.read_magic(fh)
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        assert (shape, dtype) == ((2646, 2646), np.dtype(np.uint16))
        assert len(fh.read()) == 2646**2 * 2


def test_cache_digest_covers_the_group_the_systems_and_the_npy_file(tmp_path, lam_table):
    """A saved entry is the header line, then numpy's own NPY file of the table; the digest covers all three."""
    g, table = build_group("C6"), lam_table("C6")
    head, _, npy = save_table(tmp_path, g, table).read_bytes().partition(b"\n")
    buf = io.BytesIO()
    np.lib.format.write_array(buf, table.product, allow_pickle=False)
    assert npy == buf.getvalue()
    assert head.split() == [b"superx-cache", FORMAT_VERSION.encode(), b"C6", cache_digest(g, npy).encode()]


def test_cache_save_keeps_its_scratch_below_1_mb(tmp_path, lam_table):
    """A warm save of lambda(C6) hashes and writes the 14.0 MB table with a tracemalloc peak under 1 MB."""
    g, table = build_group("C6"), lam_table("C6")
    save_table(tmp_path, g, table)
    peak = traced_peak(lambda: save_table(tmp_path, g, table))
    assert peak < 2**20, peak


def test_cache_save_hashes_the_systems_one_at_a_time(tmp_path, lam_table):
    """A warm save of lambda(C6) hashes the 21 KB of system words in place: its tracemalloc peak stays under 0.1 MB."""
    g, table = build_group("C6"), lam_table("C6")
    save_table(tmp_path, g, table)
    peak = traced_peak(lambda: save_table(tmp_path, g, table))
    assert peak < 100_000, peak


def test_resolve_cache_dir_priority(tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERX_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"
    assert resolve_cache_dir(None) == tmp_path / "env"
    monkeypatch.delenv("SUPERX_CACHE_DIR")
    assert resolve_cache_dir(None).name == "superx"


def test_invariant_command_q8():
    report = cmd_invariant("Q8")
    assert report.payload["count"] == 8
    assert report.payload["s"] == 3
    assert report.payload["up_majority"] == 8
    assert report.status == "pass"
    assert all(not s["maximal_linked"] for s in report.payload["systems"])


def test_invariant_command_c7():
    report = cmd_invariant("C7")
    assert report.payload["count"] == 3
    assert all(s["maximal_linked"] for s in report.payload["systems"])


def test_invariant_command_c2():
    assert cmd_invariant("C2").payload["count"] == 1


def test_c5_t17_command():
    report = cmd_c5_t17()
    assert report.status == "pass"
    assert len(report.payload["cells"]) == 289
    assert report.payload["row_col_match"]
    assert not report.payload["col_row_match"]
    assert report.payload["exactly_one_orientation"]
    assert report.payload["mismatches"] == []
    by_cell = {(c["row"], c["col"]): c["computed"] for c in report.payload["cells"]}
    assert by_cell[("Δ", "2Λ")] == "2Θ"
    assert by_cell[("Λ4", "Λ4")] == "Λ4"
    assert by_cell[("Θ", "2Γ")] == "Z"


def test_explore_sl_command():
    report = cmd_explore_sl(16)
    assert report.status == "info"
    rows = {r["n"]: r for r in report.payload["rows"]}
    assert rows[7]["sl"] == 3 and rows[7]["equal"]
    assert rows[12]["sl"] == 4 and rows[12]["conjecture"] == 4
    assert rows[16]["reference"] is None


def test_verify_paper_fast(monkeypatch):
    """The fast scope is the all scope minus the rows that need an order-6 table."""
    import time

    all_rows = cmd_verify_paper("all").payload["rows"]
    tabled = ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6")
    assert [r["name"] for r in all_rows if r["name"].startswith("zero in")] == [
        f"zero in lambda({name})" for name in tabled
    ]
    order6_rows = {r["name"] for r in verify.check_order6_tables()}
    order6_rows |= {"zero in lambda(C6)", "zero in lambda(D6)"}
    assert len(order6_rows) == 10
    build = verify.build_lambda_table

    def build_below_order6(g):
        assert g.order < 6, f"the fast scope built lambda({g.name})"
        return build(g)

    verify._lambda_table.cache_clear()
    verify._table_facts.cache_clear()
    monkeypatch.setattr(verify, "build_lambda_table", build_below_order6)
    start = time.perf_counter()
    report = cmd_verify_paper("fast")
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    rows = report.payload["rows"]
    assert rows == [r for r in all_rows if r["name"] not in order6_rows]
    for scope_rows in (rows, all_rows):  # the lone D10 reference mismatch
        assert [r["name"] for r in scope_rows if not r["match"]] == ["sl(D10)"]
    assert report.status == "fail"


def test_verify_paper_rejects_an_unknown_scope():
    with pytest.raises(ValueError, match="scope"):
        verify.run_verification("bogus")


# sha256 of the rows of run_verification("all"), as JSON with sorted keys
VERIFY_ALL_ROWS_DIGEST = "32bc75834cf12e711dde0fce59f421ca1622d5d4ed1f83314568a674454f728b"


def test_verify_all_holds_one_order6_table_at_a_time(monkeypatch):
    """C6 and D6 are each built once, and neither while the other is alive; the rows keep their values."""
    build = verify.build_lambda_table
    built, alive = [], set()

    def tracked(g):
        if g.order == 6:
            assert not alive, f"lambda({g.name}) built while {sorted(alive)} is alive"
            built.append(g.name)
        table = build(g)
        if g.order == 6:
            alive.add(g.name)
            weakref.finalize(table, alive.discard, g.name)
        return table

    verify._lambda_table.cache_clear()
    verify._table_facts.cache_clear()
    monkeypatch.setattr(verify, "build_lambda_table", tracked)
    rows, all_pass = verify.run_verification("all")
    assert sorted(built) == ["C6", "D6"]
    assert not alive
    digest = hashlib.sha256(json.dumps(rows, ensure_ascii=False, sort_keys=True).encode()).hexdigest()
    assert not all_pass and digest == VERIFY_ALL_ROWS_DIGEST

    c6, d6 = build_group("C6"), build_group("D6")
    t6, td = build_lambda_table(c6), build_lambda_table(d6)
    _, orbits, quotient = orbit_quotient(t6)
    direct = {
        "zero in lambda(C6)": zero(t6) is not None,
        "zero in lambda(D6)": zero(td) is not None,
        "odd equivalences C6": odd_equivalences(c6, enumerate_invariant_mls(c6), right_zeros=right_zeros(t6)),
        "odd equivalences D6": odd_equivalences(d6, enumerate_invariant_mls(d6), right_zeros=right_zeros(td)),
        "lambda(C6) table order": t6.order,
        "lambda(C6) right zeros": right_zeros(t6),
        "lambda(C6) left zeros": left_zeros(t6),
        "lambda(C6) orbit count": len(orbits),
        "lambda(C6) quotient defined": quotient is not None,
        "assoc samples lambda(C6)": sampled_associative(t6.product, random.Random(664)),
        "lambda(D6) right zeros": right_zeros(td),
        "lambda(D6) zero": zero(td),
    }
    assert {r["name"]: r["computed"] for r in rows if r["name"] in direct} == direct


def test_verify_all_enumerates_each_groups_invariant_systems_once(monkeypatch):
    """14 groups reach the invariant checks; each list is enumerated once and shared."""
    calls = []
    enumerate_invariant_mls = verify.enumerate_invariant_mls

    def counted(g, **kwargs):
        calls.append(g.name)
        return enumerate_invariant_mls(g, **kwargs)

    verify._invariant_systems.cache_clear()
    verify._table_facts.cache_clear()
    monkeypatch.setattr(verify, "enumerate_invariant_mls", counted)
    verify.run_verification("all")
    assert len(calls) == len(set(calls)) == 14


def test_verify_all_reads_each_table_fact_once(monkeypatch):
    """One facts pass per tabled group: zero and right zeros of all 8, left zeros of C6, commutativity of the 6 small."""
    calls = Counter()
    for name in ("zero", "right_zeros", "left_zeros", "is_commutative"):
        fn = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda table, _fn=fn, _name=name: calls.update([_name]) or _fn(table))
    verify._lambda_table.cache_clear()
    verify._table_facts.cache_clear()
    verify.run_verification("all")
    assert calls == {"zero": 8, "right_zeros": 8, "left_zeros": 1, "is_commutative": 6}


# Catalog groups up to order 16: C1, the sl reference groups (orders 2 to 13), and one of each group of order
# 14 to 16 the catalog grammar builds.
CATALOG_16 = ["C1", *SL_TABLE, "C14", "D14", "C15", "C16", "C2xC8", "C4xC4", "C2xC2xC4", "C2xC2xC2xC2", "D16"]


def test_claims_expect_what_their_statements_say():
    """Each claim's expected value, a bool, against the groups this test lists for it and against is_odd_group."""
    zero_groups = {"C1", "C3", "C5"}
    commutative_groups = {"C1", "C2", "C3", "C4", "C2xC2"}
    assert verify.CLAIMS == (verify.ZERO_CLAIM, verify.COMMUTATIVE_CLAIM, verify.ODD_CLAIM)
    for name in CATALOG_16:
        g = build_group(name)
        for claim, want in (
            (verify.ZERO_CLAIM, name in zero_groups),
            (verify.COMMUTATIVE_CLAIM, name in commutative_groups),
            (verify.ODD_CLAIM, is_odd_group(g)),
        ):
            got = claim.expected(g)
            assert type(got) is bool and got == want, (claim.label, name)


@pytest.mark.parametrize(
    "group, fact, value, row",
    [
        ("C4", "zero", 0, "zero in lambda(C4)"),
        ("C2", "commutative", False, "lambda(C2) commutative"),
        ("C3", "odd", False, "odd equivalences C3"),
    ],
)
def test_a_changed_fact_turns_only_its_claim_row_into_a_mismatch(monkeypatch, group, fact, value, row):
    """The claim rows compute from the table facts: their expected values do not follow the facts."""
    rows, _ = verify.run_verification("fast")
    facts = verify._table_facts
    monkeypatch.setattr(verify, "_table_facts", lambda n: {**facts(n), fact: value} if n == group else facts(n))
    changed, _ = verify.run_verification("fast")
    assert len(changed) == len(rows)
    [(before, after)] = [(a, b) for a, b in zip(rows, changed) if a != b]
    assert before["name"] == row and before["match"]
    assert after == {**before, "computed": not before["computed"], "match": False}


def test_a_missing_certificate_turns_only_the_boolean_cube_row_into_a_mismatch(monkeypatch):
    """The boolean-cube row computes from noncommuting_pair: its expected value does not follow the certificate."""
    rows, _ = verify.run_verification("fast")
    monkeypatch.setattr(verify, "noncommuting_pair", lambda g: None)
    changed, _ = verify.run_verification("fast")
    assert len(changed) == len(rows)
    [(before, after)] = [(a, b) for a, b in zip(rows, changed) if a != b]
    assert before == {"name": "boolean-cube witness", "expected": True, "computed": True, "match": True}
    assert after == {**before, "computed": False, "match": False}


def test_fast_verification_builds_the_c5_catalog_once(monkeypatch):
    """check_c5_structure and t17_cells share one lambda(C5) namer, and only its canonical names build the catalog."""
    calls = []
    catalog = c5.c5_named_catalog

    def counted():
        calls.append(1)
        return catalog()

    for cached in (verify._group, verify._lambda_table, verify._c5_namer, verify._invariant_systems):
        cached.cache_clear()
    monkeypatch.setattr(c5, "c5_named_catalog", counted)
    verify.run_verification("fast")
    assert len(calls) == 1


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["lambda", "C3", "--what=count"]) == EXIT_OK
    capsys.readouterr()
    assert main(["sl-table"]) == EXIT_MISMATCH  # D10 row
    capsys.readouterr()
    assert main(["lambda", "NOPE"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["lambda", "C9", "--what=count"]) == EXIT_CAPACITY
    capsys.readouterr()
    assert main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["lambda", "C7", "--what=count"]) == EXIT_CAPACITY
    capsys.readouterr()
    # refused before the 1.42 M ground-7 systems are enumerated
    assert main(["lambda", "C7", "--what=structure", "--allow-large"]) == EXIT_CAPACITY
    capsys.readouterr()
    # refused before any sl is computed, with nothing on stdout
    monkeypatch.setattr(cli, "sl", lambda g: pytest.fail(f"sl({g.name}) computed"))
    assert main(["explore-sl", "--max-n=17"]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group order 17 exceeds the cap of 16\n"
    # a limit below 1 is a usage error, not an empty table
    for command, flag in (("sl-table", "--max-order"), ("explore-sl", "--max-n")):
        for value in ("0", "-1"):
            assert main([command, f"{flag}={value}"]) == EXIT_USAGE, (command, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument {flag}: must be at least 1, got {value}" in captured.err
    # so is a limit that is not an int
    assert main(["sl-table", "--max-order", "x"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-order: invalid int value: 'x'" in captured.err
    # an unusable cache directory is a usage error, not a mismatch
    (tmp_path / "file").write_text("")
    cache_path(tmp_path / "taken", "C3").mkdir(parents=True)
    for cache_dir in (tmp_path / "file" / "sub", tmp_path / "taken"):
        assert main(["lambda", "C3", "--what=table", f"--cache-dir={cache_dir}"]) == EXIT_USAGE, cache_dir
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno "), captured.err


def test_unusable_cache_dir_fails_before_the_build(tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, "build_lambda_table", lambda g: pytest.fail(f"lambda({g.name}) built"))
    assert main(["lambda", "C3", "--what=table", f"--cache-dir={tmp_path / 'file' / 'sub'}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno "), captured.err


def test_isomorphism_rows_fail_without_a_transversal(monkeypatch):
    """A missing or misshapen transversal subsemigroup makes the row False; nothing raises."""
    c3_row = verify.check_isomorphisms()[0]
    for picks in (None, [0, 1], [0, 1, 2, 3]):
        monkeypatch.setattr(verify, "transversal_subsemigroup_search", lambda lam: picks)
        rows = verify.check_isomorphisms()
        assert rows[0] == c3_row
        assert [(r["computed"], r["match"]) for r in rows[1:]] == [(False, False)] * 2, picks


# Cheap arguments for every command the parser registers, one run per list.
DISPATCH_ARGS = {
    "sl-table": [["--max-order=10"]],
    "lambda": [["C3", "--what=count"], ["C3", "--what=table", "--cache-dir=cache"], ["C3", "--what=structure"]],
    "invariant": [["C3"]],
    "c5-t17": [[]],
    "verify-paper": [[]],
    "explore-sl": [["--max-n=4"]],
}


def test_every_registered_command_dispatches(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(DISPATCH_ARGS)
    for command, runs in DISPATCH_ARGS.items():
        # sl-table and verify-paper include the D10 reference row
        want = EXIT_MISMATCH if command in ("sl-table", "verify-paper") else EXIT_OK
        for args in runs:
            for fmt in ("text", "json", "csv"):
                assert main([command, *args, f"--format={fmt}"]) == want, (command, args, fmt)
                out = capsys.readouterr().out
                assert out.strip(), (command, args, fmt)
                if fmt == "json":
                    assert json.loads(out)["command"] == command


def test_t17_verdict_is_shared_by_command_and_check(monkeypatch):
    table = build_lambda_table(build_group("C5"))
    catalog = c5_named_catalog()
    index = {s.minimal_sets: i for i, s in enumerate(table.elements)}
    product = table.product.copy()
    # Δ o 2Λ is 2Θ; make it Z
    product[index[catalog["Δ"].minimal_sets], index[catalog["2Λ"].minimal_sets]] = index[catalog["Z"].minimal_sets]
    broken = SimpleNamespace(product=product, elements=table.elements)
    monkeypatch.setattr(verify, "_lambda_table", lambda name: broken)
    report = cmd_c5_t17()
    assert report.status == "fail"
    assert [(c["row"], c["col"], c["computed"]) for c in report.payload["mismatches"]] == [("Δ", "2Λ", "Z")]
    assert not report.payload["row_col_match"] and not report.payload["exactly_one_orientation"]
    rows = {r["name"]: r for r in verify.check_t17_table()}
    assert rows["T17 row*column cells"]["computed"] == 288
    assert rows["T17 exactly one orientation"]["computed"] is False
    assert rows["T17 mismatched cells"]["computed"] == ["Δ*2Λ: computed Z"]


def test_options_only_on_the_commands_that_read_them(capsys):
    assert main(["verify-paper", "--cache-dir=x"]) == EXIT_USAGE
    assert main(["invariant", "C2", "--cache-dir=x"]) == EXIT_USAGE
    assert main(["sl-table", "--allow-large"]) == EXIT_USAGE
    capsys.readouterr()


def test_main_internal_error_exit_code(monkeypatch, capsys):
    def broken(max_n):
        raise ConsistencyError("broken on purpose")

    monkeypatch.setattr(cli, "cmd_explore_sl", broken)
    assert main(["explore-sl"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal invariant failed: broken on purpose\n"


def test_main_formats(tmp_path, capsys):
    assert main(["lambda", "C2", "--what=table", "--format=json", f"--cache-dir={tmp_path}"]) == EXIT_OK
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["payload"]["matrix"] == [[0, 1], [1, 0]]
    assert main(["explore-sl", "--max-n=5", "--format=csv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,sl,conjecture,equal,reference"
    assert main(["c5-t17", "--format=text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "MISMATCH" not in out


# sha256 of the stdout of the commands that bench/pinned.json does not pin;
# JSON is digested without its elapsed_ms field.  Each command runs in an
# empty working directory, so the relative --cache-dir is always a miss and
# cache_file, which names the cache format version, is stable.  A refactor must
# leave every one of them unchanged.
UNPINNED_OUTPUT_DIGESTS = {
    ("sl-table", "text"): "7acc9b94fefeb8120304d8dbe696d46ea2d711ef8af45dd5b76cdcbce7b31183",
    ("sl-table", "json"): "0a0750850874d6007a53d2b458110aa7ee1db8c7821680c9144c254f3a49fd0d",
    ("sl-table", "csv"): "4f9c997ddd52811e8010624a9a18a9ec87aec37b7b2566ec8d0702944a4c18d4",
    ("c5-t17", "text"): "1217ada835748982df3540126f9745836d6b823815eff0dc3e3a35e959962444",
    ("c5-t17", "json"): "4a5cb42ffdb34818a97de3cd9b69dd72b02d4e505949e1f5cd6948ec10499741",
    ("c5-t17", "csv"): "5bb2acf915a7a2a4d1bd135937423ecf56fc60dc732abf78df3cdcabda1bd934",
    ("explore-sl --max-n=8", "text"): "dd10a2448030f7f176fafd644bea6ac6fea89827b62663d64e0874f78b4da03c",
    ("explore-sl --max-n=8", "json"): "39227375bb7c4404d70842015e2afc7314ae31fd5c7df6bb02a2765a457e56db",
    ("explore-sl --max-n=8", "csv"): "831ec36f5966918fbb3f9bdc6429c8e692306ad7e85a760730284806caceca16",
    ("invariant C6", "text"): "b61fe7d6a0a8b69b778219d7e64f9c08b3e8946636c024cc824b92c582845b7a",
    ("invariant C6", "json"): "b052924f2f75ee1dc5c1f2b47b1059612f6787a1920b61310017ca4f4bb8ec18",
    ("invariant C6", "csv"): "0387aaa4980b9d0486c266bcc1d2b6e4e62f4567917cd780c0e7d071b7d256e3",
    ("invariant C3xC3 --allow-large", "text"): "7140fb3dc496261c2ff3251737302fc542d08ef9521f2a0f5c786d52d425c623",
    ("invariant C3xC3 --allow-large", "json"): "c7825f01c767d095314f61d31c40cc4b16b51cfaec34514eabdf5cae05558bc9",
    ("invariant C3xC3 --allow-large", "csv"): "2fb2f0d73381a6e79875476656dee418d9c8541e004fe55873a3fe1b88454305",
    ("invariant C9 --allow-large", "text"): "5b8805b93641f155600147ce27aba2077da45941b002eb30c4f78d4870a9544f",
    ("invariant C9 --allow-large", "json"): "c11eba500103eabc30812f3c14b0fd9754051e7c2aa8463bd38297a98c844453",
    ("invariant C9 --allow-large", "csv"): "d906ab311a7edd181f08aae5d72c551ba17cfa3ae423fdee92dba6fa3f32b11a",
    ("invariant D10 --allow-large", "text"): "486a0373699eab5d864c0cf36f691e7acde9895f99942d2be611accd0e22ae4b",
    ("invariant D10 --allow-large", "json"): "c4b2eaf9965be60e11acf46e76df4aa8198cdb34306ad3364a91dabeb2d06ef1",
    ("invariant D10 --allow-large", "csv"): "d6b150ab030eee1f77ffaf2c0894e14189a94357e2af86c10cf72ff93ab96c34",
    ("lambda C4 --what=structure", "text"): "313ec15bbf4769ad730a2e6665bc57b2485c5855e943a69394062fbaa8ada634",
    ("lambda C4 --what=structure", "json"): "69d8686fa8579cec5062aa813c872ee61a9db0178261cf13616ea66090e2b031",
    ("lambda C4 --what=structure", "csv"): "9f4206fbc5b0b5107f1ecc58fcff04e7b10a6611455a446a2035bdb525801eb4",
    ("lambda C5 --what=structure", "text"): "2746abae23aca91a5af0ea3c065304f559be5d1077ecf9cc7cad9b54da48015a",
    ("lambda C5 --what=structure", "json"): "2719b36fbd1900f05cbcaa22b8b6d2ed0f384f63973f2657693fc9877341d2f2",
    ("lambda C5 --what=structure", "csv"): "8aac87e62f4f95df46766a7433172435828866a6f66cb738d9e5bf73b6e164aa",
    ("lambda C6 --what=count", "text"): "c457d8a7a0d715c1e715aac84dc1973183beb7fe257b29b4b3259bc173fd18db",
    ("lambda C6 --what=count", "json"): "7d8136513cbc0598ad87f2a945e44ff4475a7f0a81d84ca09990eed3cdd9f5ac",
    ("lambda C6 --what=count", "csv"): "049f519ff56651266ae11a5d641276427cfb8cc826ede01370176801d89d1260",
    ("lambda D6 --what=count", "text"): "f8a12ff9928a8948e7109bc8c12240bb3d0475b8e60da237cc545e3f9f8fe337",
    ("lambda D6 --what=count", "json"): "693706ab3aab6f19a19615afab4bf0037b876759fb50ed33a2c21f7be031ffa5",
    ("lambda D6 --what=count", "csv"): "33ebd0bcfdf3f0188db0163d3a217c916f96cb2293cf5a94f8473668cf95bba7",
    ("verify-paper --scope=fast", "text"): "c2eb5b3841e080e130bea0e0255b55de980c5d55bd697f9769616720f46b7105",
    ("verify-paper --scope=fast", "json"): "ab37afda7f836ed3d2ee617bd16ff76471241a394474f44c51e256f75348cac3",
    ("verify-paper --scope=fast", "csv"): "049720309ec2c1dbe1cc4ab5dd53b9d1666704837605ce276b7731968e29d2eb",
    ("lambda C3 --what=table --cache-dir=cache", "text"): "a42a50e008221d13d08eb4e7cd178ef6e90e5011011a0366b72a138797df1c80",
    ("lambda C3 --what=table --cache-dir=cache", "json"): "87df4198827ee14da7d64f1a48b007c76ec7d274d69a8ca2738857f15851ebee",
    ("lambda C3 --what=table --cache-dir=cache", "csv"): "a5f755b4f1038895d554adb5d8ffa9f6e38f392ab7497f7801d4500554ee3c7f",
}


def test_unpinned_command_outputs_unchanged(tmp_path, monkeypatch, capsys):
    for k, ((command, fmt), digest) in enumerate(UNPINNED_OUTPUT_DIGESTS.items()):
        work = tmp_path / str(k)
        work.mkdir()
        monkeypatch.chdir(work)
        code = main(command.split() + [f"--format={fmt}"])
        # the D10 reference row
        assert code == (EXIT_MISMATCH if command.split()[0] in ("sl-table", "verify-paper") else EXIT_OK)
        out = capsys.readouterr().out
        if fmt == "json":
            data = json.loads(out)
            del data["elapsed_ms"]
            out = json.dumps(data, ensure_ascii=False, sort_keys=True)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, fmt)


def test_invariant_c10_output_pinned(capsys):
    # C10 is the largest group the invariant enumeration admits (2,312
    # systems, none maximal linked); digest as in UNPINNED_OUTPUT_DIGESTS
    assert main(["invariant", "C10", "--allow-large", "--format=json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    del data["elapsed_ms"]
    payload = data["payload"]
    assert payload["count"] == len(payload["systems"]) == 2312
    assert (payload["s"], payload["up_majority"]) == (11, 2**11)
    assert not any(s["maximal_linked"] for s in payload["systems"])
    out = json.dumps(data, ensure_ascii=False, sort_keys=True)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "01d763f12956f8f6b67ad4e9fb57fd43a6cba6063c236a458bc1c37a9dc598fc"
