from __future__ import annotations

import argparse
import hashlib
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from superx.c5 import c5_named_catalog
from superx.cache import cache_path, load_table, resolve_cache_dir, save_table
import superx.cache as cache
import superx.cli as cli
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
from superx.families import enumerate_mls
from superx.groups import _make_group, build_group
from superx.superext import build_lambda_table


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


def test_lambda_table_cache_round_trip(tmp_path):
    report = cmd_lambda("C4", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    path = cache_path(tmp_path, "C4")
    assert report.payload["cache_file"] == str(tmp_path / "C4-table-v2.npy") == str(path)
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
    corrupted = bytearray(original)
    corrupted[-4] ^= 1  # low byte of the last cell: still an index in range
    path.write_bytes(bytes(corrupted))
    report = cmd_lambda("C3", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    assert path.read_bytes() == original


def test_cache_header_and_loaders(tmp_path):
    g = build_group("C3")
    table = build_lambda_table(g)
    path = save_table(tmp_path, g, table)
    head, _, payload = path.read_bytes().partition(b"\n")
    fields = head.split()
    assert fields[:3] == [b"superx-cache", b"v2", b"C3"] and len(fields[3]) == 64
    assert payload.startswith(b"\x93NUMPY")
    loaded = load_table(tmp_path, g)
    assert loaded is not None
    assert (loaded.product == table.product).all()
    assert loaded.elements == table.elements
    assert (loaded.labels, loaded.name) == (table.labels, table.name)
    assert load_table(tmp_path / "missing", g) is None


def _relabelled_c4():
    """C4 under its own name with elements 1 and 2 swapped: another layout."""
    swap = [0, 2, 1, 3]
    return _make_group("C4", [[swap[(swap[a] + swap[b]) % 4] for b in range(4)] for a in range(4)])


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
    reordered = list(reversed(enumerate_mls(4)))
    for module in (superext, cache):  # the builder and the loader both read the enumerator
        monkeypatch.setattr(module, "enumerate_mls", lambda n: list(reordered))
    report = cmd_lambda("C4", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    assert report.payload["elements"] == first["elements"][::-1]
    # the same semigroup, indexed the other way round
    last = len(reordered) - 1
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
    h = hashlib.sha256(repr(g.mul).encode())
    h.update("\n".join(s.serialize() for s in enumerate_mls(2)).encode() + b"\n" + npy)
    path = cache_path(tmp_path, "C2")
    path.write_bytes(f"superx-cache v2 C2 {h.hexdigest()}\n".encode() + npy)
    assert load_table(tmp_path, g) is None
    assert _UNPICKLED == []
    report = cmd_lambda("C2", "table", cache_dir=str(tmp_path))
    assert not report.payload["cache_hit"]
    assert load_table(tmp_path, g) is not None
    np.lib.format.read_array(io.BytesIO(npy), allow_pickle=True)
    assert _UNPICKLED  # the payload does run code when unpickled


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
    # an unusable cache directory is a usage error, not a mismatch
    (tmp_path / "file").write_text("")
    (tmp_path / "taken" / "C3-table-v2.npy").mkdir(parents=True)
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
    broken = SimpleNamespace(product=product, elements=table.elements, labels=table.labels)
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
# cache_file is stable.  A refactor must leave every one of them unchanged.
UNPINNED_OUTPUT_DIGESTS = {
    ("sl-table", "text"): "9077d12c31634711d5149e6d70ed86eeeb20dfd06b5a86ef0e7adda88095804a",
    ("sl-table", "json"): "0a0750850874d6007a53d2b458110aa7ee1db8c7821680c9144c254f3a49fd0d",
    ("sl-table", "csv"): "4f9c997ddd52811e8010624a9a18a9ec87aec37b7b2566ec8d0702944a4c18d4",
    ("c5-t17", "text"): "ba890ef10fe28aa53d7ac9510875f18b1dece707ed0eaa11cc9bae02939772dc",
    ("c5-t17", "json"): "4a5cb42ffdb34818a97de3cd9b69dd72b02d4e505949e1f5cd6948ec10499741",
    ("c5-t17", "csv"): "5bb2acf915a7a2a4d1bd135937423ecf56fc60dc732abf78df3cdcabda1bd934",
    ("explore-sl --max-n=8", "text"): "4037dc9770bda590415e13a9465cc84d8c631efe3eda2eafbebeab73cc7f25ca",
    ("explore-sl --max-n=8", "json"): "39227375bb7c4404d70842015e2afc7314ae31fd5c7df6bb02a2765a457e56db",
    ("explore-sl --max-n=8", "csv"): "831ec36f5966918fbb3f9bdc6429c8e692306ad7e85a760730284806caceca16",
    ("invariant C6", "text"): "685edb341ad129ac2cc83a2c0c2657b53723244c6a3b594b2e1b1775aaf2145e",
    ("invariant C6", "json"): "b052924f2f75ee1dc5c1f2b47b1059612f6787a1920b61310017ca4f4bb8ec18",
    ("invariant C6", "csv"): "0387aaa4980b9d0486c266bcc1d2b6e4e62f4567917cd780c0e7d071b7d256e3",
    ("invariant C3xC3 --allow-large", "text"): "dc3992c9d505338da5ec6e6890a908c40b7930eecc5ffe05a13b7efb4cc6e117",
    ("invariant C3xC3 --allow-large", "json"): "c7825f01c767d095314f61d31c40cc4b16b51cfaec34514eabdf5cae05558bc9",
    ("invariant C3xC3 --allow-large", "csv"): "2fb2f0d73381a6e79875476656dee418d9c8541e004fe55873a3fe1b88454305",
    ("invariant C9 --allow-large", "text"): "8c42ac7268af94ba3f0be70e0a75a61cdd7a4c4d51249d61f022a8cc4c50e934",
    ("invariant C9 --allow-large", "json"): "c11eba500103eabc30812f3c14b0fd9754051e7c2aa8463bd38297a98c844453",
    ("invariant C9 --allow-large", "csv"): "d906ab311a7edd181f08aae5d72c551ba17cfa3ae423fdee92dba6fa3f32b11a",
    ("invariant D10 --allow-large", "text"): "5e737f4899d3575d668bc06fc18306e8dcc8b99955a60624dad20055ecab2c18",
    ("invariant D10 --allow-large", "json"): "c4b2eaf9965be60e11acf46e76df4aa8198cdb34306ad3364a91dabeb2d06ef1",
    ("invariant D10 --allow-large", "csv"): "d6b150ab030eee1f77ffaf2c0894e14189a94357e2af86c10cf72ff93ab96c34",
    ("lambda C4 --what=structure", "text"): "aef973570e33fb28ef4d1cdb0881493c972556b3e62d5b0ee1c802ed97096b93",
    ("lambda C4 --what=structure", "json"): "69d8686fa8579cec5062aa813c872ee61a9db0178261cf13616ea66090e2b031",
    ("lambda C4 --what=structure", "csv"): "9f4206fbc5b0b5107f1ecc58fcff04e7b10a6611455a446a2035bdb525801eb4",
    ("lambda C5 --what=structure", "text"): "acd53b684f51d28a3f76784008694ee6926a3365f73897ea816c2ce8d4246503",
    ("lambda C5 --what=structure", "json"): "2719b36fbd1900f05cbcaa22b8b6d2ed0f384f63973f2657693fc9877341d2f2",
    ("lambda C5 --what=structure", "csv"): "8aac87e62f4f95df46766a7433172435828866a6f66cb738d9e5bf73b6e164aa",
    ("lambda C6 --what=count", "text"): "86e8240a107e88fc1634fb14ee3613da9b843671921332bc51921aa86fe76c10",
    ("lambda C6 --what=count", "json"): "7d8136513cbc0598ad87f2a945e44ff4475a7f0a81d84ca09990eed3cdd9f5ac",
    ("lambda C6 --what=count", "csv"): "049f519ff56651266ae11a5d641276427cfb8cc826ede01370176801d89d1260",
    ("lambda D6 --what=count", "text"): "813db3fdea282794cf4727ce6ffed11a2c72f05c4439ebad39323bf21ddda8a8",
    ("lambda D6 --what=count", "json"): "693706ab3aab6f19a19615afab4bf0037b876759fb50ed33a2c21f7be031ffa5",
    ("lambda D6 --what=count", "csv"): "33ebd0bcfdf3f0188db0163d3a217c916f96cb2293cf5a94f8473668cf95bba7",
    ("verify-paper --scope=fast", "text"): "262bce402b182029e66055539b2bdd89384043cc1d7c1af1108396a150690410",
    ("verify-paper --scope=fast", "json"): "ab37afda7f836ed3d2ee617bd16ff76471241a394474f44c51e256f75348cac3",
    ("verify-paper --scope=fast", "csv"): "049720309ec2c1dbe1cc4ab5dd53b9d1666704837605ce276b7731968e29d2eb",
    ("lambda C3 --what=table --cache-dir=cache", "text"): "14893a4ef0ee4982922aa85d13589cabb92d5227e808ae4f66c94194e5ecef3b",
    ("lambda C3 --what=table --cache-dir=cache", "json"): "8160166178b56942b84a23d26a6173e2eb7b7f3659768733848fba9eec4fabe7",
    ("lambda C3 --what=table --cache-dir=cache", "csv"): "4b11c62b365814fd530cdf8bb7f5f0dff580b18883b5325197acc0f5ab81b80f",
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
