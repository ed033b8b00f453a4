import hashlib
import io
import json
import os
import random

import pytest

import sl3webs
from sl3webs import cli
from sl3webs.cli import main, verify_paper
from sl3webs.planarmap import CombMap, disjoint_union, serialize_web, validate
from sl3webs.qlaurent import parse_qexpr
from sl3webs.tables import TableRow
from webfixtures import cube_web, digon_prism_web, fixture_web, hex_prism_web, theta_web


@pytest.fixture
def webdir(tmp_path):
    files = {}
    for name, w in [
        ("cube", cube_web()),
        ("theta", theta_web()),
        ("hexprism", hex_prism_web()),
        ("digon", digon_prism_web()),
    ]:
        path = tmp_path / f"{name}.web"
        path.write_text(serialize_web(w, "dart"))
        files[name] = str(path)
    files["cube_simple"] = str(tmp_path / "cube_simple.web")
    (tmp_path / "cube_simple.web").write_text(serialize_web(cube_web(), "simple"))
    return files


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestInvariantCommand:
    def test_pretty_cube(self, capsys, webdir):
        rc, out, _ = run(capsys, "invariant", webdir["cube"], "--pretty")
        assert rc == 0
        assert out.strip() == "2q^2+6q+8+6q^-1+2q^-2"

    def test_json_deterministic(self, capsys, webdir):
        rc1, out1, _ = run(capsys, "invariant", webdir["hexprism"])
        rc2, out2, _ = run(capsys, "invariant", webdir["hexprism"])
        assert rc1 == rc2 == 0
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["vertices"] == 12
        assert obj["invariant"] == parse_qexpr("[2]^4[3]+2[2]^2[3]").to_json_obj()

    def test_simple_format_input(self, capsys, webdir):
        rc, out, _ = run(capsys, "invariant", webdir["cube_simple"], "--pretty")
        assert rc == 0 and out.strip() == "2q^2+6q+8+6q^-1+2q^-2"

    def test_web_from_stdin(self, capsys, monkeypatch, webdir):
        with open(webdir["cube"]) as fh:
            text = fh.read()
        for pretty in ((), ("--pretty",)):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            rc, out, _ = run(capsys, "invariant", "-", *pretty)
            assert rc == 0
            assert out == run(capsys, "invariant", webdir["cube"], *pretty)[1]
        assert out.strip() == "2q^2+6q+8+6q^-1+2q^-2"

    def test_missing_file_is_domain_error(self, capsys, webdir):
        rc, out, err = run(capsys, "invariant", webdir["cube"] + ".nope")
        assert rc == 1
        assert "error:" in err

    def test_usage_error_exit_2(self, webdir):
        with pytest.raises(SystemExit) as exc:
            main(["invariant"])
        assert exc.value.code == 2


class TestIsoAndCanon:
    def test_iso_true(self, capsys, webdir):
        rc, out, _ = run(capsys, "iso", webdir["cube"], webdir["cube_simple"])
        assert rc == 0 and json.loads(out) == {"isomorphic": True}

    def test_iso_false(self, capsys, webdir):
        rc, out, _ = run(capsys, "iso", webdir["cube"], webdir["hexprism"])
        assert rc == 0 and json.loads(out) == {"isomorphic": False}

    def test_canon_stable(self, capsys, webdir):
        rc1, out1, _ = run(capsys, "canon", webdir["cube"])
        rc2, out2, _ = run(capsys, "canon", webdir["cube_simple"])
        assert rc1 == rc2 == 0
        assert json.loads(out1)["web"] == json.loads(out2)["web"]
        assert json.loads(out1)["key"] == json.loads(out2)["key"]


class TestDecomposeCommand:
    def test_prime_input(self, capsys, webdir):
        rc, out, _ = run(capsys, "decompose", webdir["cube"])
        obj = json.loads(out)
        assert rc == 0
        assert obj["k"] == 1 and obj["l"] == 0
        assert obj["identity_holds"] is True

    def test_pretty_reuses_the_prime_values(self, capsys, monkeypatch, tmp_path):
        # one evaluation per prime, in both modes, and none of the whole
        # web; the pretty text reads the values the identity was built from
        from sl3webs import cli, primedec
        from sl3webs.primedec import connected_sum

        path = tmp_path / "sum.web"
        path.write_text(serialize_web(connected_sum(cube_web(), 0, hex_prism_web(), 0), "dart"))
        obj = json.loads(run(capsys, "decompose", str(path))[1])
        assert obj["k"] == 2 and obj["identity_holds"] is True
        expected = [f"k=2 l={obj['l']} identity_holds=True"]
        for i, prime in enumerate(obj["primes"], 1):
            w = sl3webs.parse_web(prime)
            expected.append(f"prime {i}: {w.n_vertices} vertices, P = {sl3webs.invariant(w).pretty()}")
        for argv in (("decompose", str(path)), ("decompose", str(path), "--pretty")):
            calls = []
            engine = cli.invariant
            monkeypatch.setattr(cli, "invariant", lambda web: calls.append(web) or engine(web))
            rc, out, _ = run(capsys, *argv)
            monkeypatch.undo()
            assert rc == 0 and len(calls) == 2
        assert not hasattr(primedec, "invariant")
        assert out == "\n".join(expected) + "\n"

    def test_each_junction_is_cut_once(self, capsys, monkeypatch, tmp_path):
        # decompose's factorization is the one the engine values the sum
        # by: with the primes' values in the memo, a sum of k primes is
        # split k - 1 times in all
        from sl3webs import planarmap, primedec, reducer
        from test_reducer import prime_sum

        names = ["10_3", "8_1", "9_2", "10_7"]
        monkeypatch.setattr(reducer, "_MEMO", planarmap._IsoStore())
        for name in names:
            sl3webs.invariant(fixture_web(f"prime_{name}"))
        splits = []
        split = planarmap.split
        for module in (primedec, reducer):
            monkeypatch.setattr(module, "split", lambda web, cut: splits.append(cut) or split(web, cut))
        rng = random.Random(21)
        for k in (2, 3, 4):
            path = tmp_path / f"sum_{k}.dart"
            path.write_text(serialize_web(prime_sum(names[:k], rng)))
            splits.clear()
            rc, out, _ = run(capsys, "decompose", str(path))
            obj = json.loads(out)
            assert rc == 0 and obj["k"] == k and obj["identity_holds"] is True
            assert len(splits) == k - 1

    def test_cold_sum_stores_no_composite(self, capsys, monkeypatch, tmp_path):
        # P of the sum comes from its primes' values: a cold sum of four
        # primes is never probed or stored, and each prime is probed once
        from sl3webs import cli, planarmap, reducer
        from test_reducer import prime_sum, stored_map

        store = planarmap._IsoStore()
        monkeypatch.setattr(reducer, "_MEMO", store)
        path = tmp_path / "sum_4.dart"
        path.write_text(serialize_web(prime_sum(["10_3", "8_1", "9_2", "10_7"], random.Random(4))))
        decs, probes = [], []
        decompose, entry = cli.decompose, store.entry
        monkeypatch.setattr(cli, "decompose", lambda web: decs.append(decompose(web)) or decs[-1])
        monkeypatch.setattr(store, "entry", lambda cmap: probes.append(cmap) or entry(cmap))
        rc, out, _ = run(capsys, "decompose", str(path))
        assert rc == 0 and json.loads(out)["identity_holds"] is True
        ((dec,),) = (decs,)
        assert dec.k == 4
        assert [sum(cmap is p.map for cmap in probes) for p in dec.primes] == [1] * 4
        stored = [stored_map(e) for bucket in store.values() for e in bucket]
        assert len(stored) > 4 and not any(planarmap._bonds(m) for m in stored)

    def test_multigraph_rejected(self, capsys, webdir):
        rc, _, err = run(capsys, "decompose", webdir["theta"])
        assert rc == 1 and "simple" in err

    @pytest.mark.parametrize(
        "web, described",
        [
            (validate(CombMap([], [])), "got 0 vertices in 0 components"),
            (disjoint_union(cube_web(), hex_prism_web()), "got 20 vertices in 2 components"),
        ],
        ids=["no_darts", "disconnected"],
    )
    def test_needs_connected_web_with_vertices(self, capsys, tmp_path, web, described):
        # an empty web is named as such, not as a disconnected one
        path = tmp_path / "bad.dart"
        path.write_text(serialize_web(web))
        rc, _, err = run(capsys, "decompose", str(path))
        assert rc == 1
        assert f"decompose needs a connected web with vertices, {described}" in err


class TestEnumerateCommand:
    def test_count_eight_vertices(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "--vertices", "8", "--count")
        assert rc == 0 and out.strip() == "1"

    def test_webs_listing(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "--vertices", "12")
        obj = json.loads(out)
        assert obj["count"] == 1
        assert obj["webs"][0].startswith("darts: 36")

    def test_circular_only(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "--vertices", "16", "--circular-only", "--count")
        assert rc == 0 and out.strip() == "2"

    def test_negative_vertices_message(self, capsys):
        rc, _, err = run(capsys, "enumerate", "--vertices", "-4", "--count")
        assert rc == 1
        assert "even and non-negative" in err and "-4" in err

    def test_negative_slack_message(self, capsys):
        err = usage_error(capsys, "enumerate", "--vertices", "8", "--slack", "-2")
        assert "unrecognized arguments: --slack -2" in err

    def test_negative_vertices_circular_only_message(self, capsys):
        rc, _, err = run(capsys, "enumerate", "--vertices", "-4", "--circular-only")
        assert rc == 1
        assert "vertex count must be even and non-negative, got -4" in err


class TestSymmetryCommands:
    def test_check(self, capsys, webdir):
        rc, out, _ = run(capsys, "symmetry-check", webdir["hexprism"], webdir["digon"], "3")
        obj = json.loads(out)
        assert rc == 0
        assert obj["candidates"][0]["congruent"] is True

    def test_check_order_six_fails(self, capsys, webdir):
        rc, out, _ = run(capsys, "symmetry-check", webdir["hexprism"], webdir["theta"], "6")
        obj = json.loads(out)
        assert rc == 0
        assert obj["candidates"][0]["congruent"] is False

    def test_check_order_one_skipped(self, capsys, webdir):
        rc, out, _ = run(capsys, "symmetry-check", webdir["hexprism"], webdir["digon"], "1", "--pretty")
        assert rc == 0 and out == "d=1: skipped\n"

    def test_root_expr(self, capsys):
        rc, out, _ = run(
            capsys, "symmetry-root", "--expr", "[2]^4[3]+2[2]^2[3]", "2"
        )
        obj = json.loads(out)
        assert rc == 0 and obj["outcome"] == "found"

    def test_root_generic_scan_found(self, capsys):
        # d = 3 is prime: one linear solve over F_3 finds the least
        # witness, and `searched` counts to the end of the first 2^14
        # chunk, where the generic ring scan finds it
        rc, out, _ = run(capsys, "symmetry-root", "--expr", "[2]^4[3]+2[2]^2[3]", "3")
        obj = json.loads(out)
        assert rc == 0 and obj["outcome"] == "found"
        assert obj["searched"] == 16384
        assert obj["witness"] == {"-4": "2", "0": "1"}

    def test_root_generic_scan_budget_exhausted(self, capsys):
        rc, out, _ = run(
            capsys, "symmetry-root", "--expr", "[2]^4[3]+2[2]^2[3]", "5", "--budget", "20000"
        )
        obj = json.loads(out)
        assert rc == 0 and obj["outcome"] == "budget_exhausted"
        assert obj["searched"] == 20000

    def test_root_negative_budget_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["symmetry-root", "--expr", "[2]^2[3]", "2", "--budget", "-5"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_root_budget_exhausted_beyond_float_range(self, capsys):
        # 47^188 candidates overflow a float; the detail must still print
        rc, out, _ = run(capsys, "symmetry-root", "--expr", "[2]", "47", "--budget", "10")
        obj = json.loads(out)
        assert rc == 0 and obj["outcome"] == "budget_exhausted"
        assert "47^188" in obj["detail"]

    def test_root_order_below_two_message(self, capsys):
        rc, _, err = run(capsys, "symmetry-root", "--expr", "[2]", "-3")
        assert rc == 1
        assert "the order d must be at least 2, got -3" in err

    @pytest.mark.parametrize(
        "web, described",
        [
            (validate(CombMap([], []), 2), "got 0 vertices in 0 components"),
            (disjoint_union(cube_web(), theta_web()), "got 10 vertices in 2 components"),
        ],
        ids=["circles_only", "disconnected"],
    )
    def test_check_needs_connected_web_with_vertices(self, capsys, webdir, tmp_path, web, described):
        path = tmp_path / "bad.web"
        path.write_text(serialize_web(web, "dart"))
        rc, _, err = run(capsys, "symmetry-check", str(path), webdir["digon"], "3")
        assert rc == 1
        assert f"the web must be connected and have vertices, {described}" in err
        assert "automorphism_count" not in err

    def test_root_rejects_web_file_and_expr_together(self, capsys, webdir):
        for web in ("/nonexistent.dart", webdir["hexprism"]):
            rc, out, err = run(capsys, "symmetry-root", web, "2", "--expr", "[2]^2[3]")
            assert rc == 1 and out == ""
            assert "a web file or --expr, not both" in err

    def test_root_needs_web_file_or_expr(self, capsys):
        rc, out, err = run(capsys, "symmetry-root", "2")
        assert rc == 1 and out == ""
        assert "symmetry-root needs a web file or --expr" in err

    def test_root_from_web(self, capsys, webdir):
        rc, out, _ = run(capsys, "symmetry-root", webdir["hexprism"], "3")
        obj = json.loads(out)
        assert rc == 0 and obj["outcome"] == "found"


class TestCatalogCommand:
    def test_catalog_lines(self, capsys):
        rc, out, _ = run(capsys, "catalog", "--max-vertices", "12")
        assert rc == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert [l["name"] for l in lines] == ["4_1", "6_1"]
        assert lines[1]["descriptions"] == [[4, 4, 4], [4, 4, 4], [6, 6]]

    def test_catalog_bytes_pinned(self, capsys):
        # every name, invariant, description, circularity flag and
        # representative's dart labels of the primes through 22 vertices,
        # byte for byte
        rc, out, _ = run(capsys, "catalog", "--max-vertices", "22")
        assert rc == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "faf67778cf59895c0b38e4565ee12eeb6343eb878244c045069940cc6f7571ca"

    def test_catalog_pretty(self, capsys):
        rc, out, _ = run(capsys, "catalog", "--max-vertices", "14", "--pretty")
        assert rc == 0
        assert out.splitlines() == [
            "4_1: 2q^2+6q+8+6q^-1+2q^-2  [4+4 / 4+4 / 4+4]  circular",
            "6_1: q^3+7q^2+17q+22+17q^-1+7q^-2+q^-3  [4+4+4 / 4+4+4 / 6+6]  circular",
            "7_1: -4q^(5/2)-16q^(3/2)-28q^(1/2)-28q^(-1/2)-16q^(-3/2)-4q^(-5/2)  [4+4+6 / 4+4+6 / 4+4+6]  circular",
        ]

    def test_bad_slack_messages(self, capsys):
        # every layer is built upward from the one below; there is no seed
        # budget above the requested size to set
        for slack in ("-4", "1", "2"):
            err = usage_error(capsys, "catalog", "--max-vertices", "12", "--slack", slack)
            assert f"unrecognized arguments: --slack {slack}" in err


class TestVerifyPaper:
    def test_report_small(self):
        report = verify_paper(n_max=14)
        assert report["size_histogram"] == {8: 1, 10: 0, 12: 1, 14: 1}
        assert report["summary"]["rows_total"] == 3
        assert report["summary"]["exact_invariants"] == 3
        assert report["unlisted_webs"] == []

    def test_pretty_text(self, capsys):
        rc, out, _ = run(capsys, "verify-paper", "--max-vertices", "14", "--pretty")
        assert rc == 0
        assert out.splitlines() == [
            "size histogram: 8:1 10:0 12:1 14:1",
            "4_1: exact (as 4_1)",
            "6_1: exact (as 6_1)",
            "7_1: exact (as 7_1)",
            "3/3 rows exact, 0 suspect rows reported, 3 structural matches",
        ]
        # a suspect row prints both invariants
        rc, out, _ = run(capsys, "verify-paper", "--pretty")
        lines = out.splitlines()
        assert rc == 0 and len(lines) == 17
        assert lines[0] == "size histogram: 8:1 10:0 12:1 14:1 16:2 18:2 20:8"
        assert lines[9] == (
            "10_2: SUSPECT (as 10_3) transcribed=8q^4+48q^3+136q^2+240q+288+240q^-1+136q^-2+48q^-3+8q^-4"
            " computed=8q^3+40q^2+88q+112+88q^-1+40q^-2+8q^-3"
        )
        assert lines[-1] == "12/15 rows exact, 3 suspect rows reported, 15 structural matches"

    def test_pretty_mismatch(self, capsys, monkeypatch):
        # a row whose transcribed invariant differs from the computed one
        rows = [TableRow("7_1", "4[2]^3[3]", [[4, 4, 6]] * 3, True) if r.name == "7_1" else r for r in cli.TABLE_ROWS]
        monkeypatch.setattr(cli, "TABLE_ROWS", rows)
        rc, out, _ = run(capsys, "verify-paper", "--max-vertices", "14", "--pretty")
        assert rc == 0
        assert out.splitlines()[3:] == [
            "7_1: MISMATCH (as 7_1)"
            " transcribed=4q^(5/2)+16q^(3/2)+28q^(1/2)+28q^(-1/2)+16q^(-3/2)+4q^(-5/2)"
            " computed=-4q^(5/2)-16q^(3/2)-28q^(1/2)-28q^(-1/2)-16q^(-3/2)-4q^(-5/2)",
            "2/3 rows exact, 0 suspect rows reported, 3 structural matches",
        ]

    def test_each_row_parsed_once(self, monkeypatch):
        parsed = []
        row_invariant = TableRow.invariant

        def counted(row):
            parsed.append(row.name)
            return row_invariant(row)

        monkeypatch.setattr(TableRow, "invariant", counted)
        report = verify_paper(n_max=20)
        assert sorted(parsed) == sorted(d["row"] for d in report["rows"])
        assert len(parsed) == report["summary"]["rows_total"] == 15

    def test_slack_flag_rejected(self, capsys):
        err = usage_error(capsys, "verify-paper", "--max-vertices", "12", "--slack", "2")
        assert "unrecognized arguments: --slack 2" in err

    def test_threads_flag_rejected(self):
        # evaluation is sequential; there is no parallelism knob to set
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "4", "enumerate", "--vertices", "8", "--count"])
        assert exc.value.code == 2


class TestParserReuse:
    def test_calls_in_a_row_match_fresh_calls(self, capsys, webdir):
        # the parser is built once per process; no call may see the
        # subcommand or flags of the call before it
        from sl3webs.cli import _build_parser

        calls = [
            ("invariant", "--pretty", webdir["cube"]),
            ("decompose", webdir["hexprism"]),
            ("invariant", webdir["cube"]),
        ]
        in_a_row = [run(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert in_a_row == fresh
        assert in_a_row[0][1] != in_a_row[2][1]
        assert all(rc == 0 for rc, _, _ in in_a_row)


def _child_env(hash_seed):
    """A child interpreter's environment: the hash seed, and the package
    from where this interpreter imported it."""
    src = os.path.dirname(os.path.dirname(sl3webs.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)


class TestCrossProcessDeterminism:
    def test_canon_stable_under_hash_randomization(self, webdir):
        import subprocess
        import sys

        outs = []
        for seed in ("0", "31337"):
            env = _child_env(seed)
            proc = subprocess.run(
                [sys.executable, "-m", "sl3webs.cli", "canon", webdir["hexprism"]],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_catalog_stable_under_hash_randomization(self, webdir):
        import subprocess
        import sys

        outs = []
        for seed in ("1", "99991"):
            env = _child_env(seed)
            proc = subprocess.run(
                [sys.executable, "-m", "sl3webs.cli", "catalog", "--max-vertices", "12"],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestStartup:
    @pytest.mark.parametrize("module", ["sl3webs", "sl3webs.cli"])
    def test_import_loads_no_numpy(self, module):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}, sys; sys.exit('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=_child_env("0"),
        )
        assert proc.returncode == 0, proc.stderr or "numpy was imported"
