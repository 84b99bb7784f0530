import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import alexq
from alexq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyVerb:
    def test_text_final_line(self, capsys):
        code, out, _ = run(capsys, "classify", "--order", "16", "--format", "text")
        assert code == 0
        assert out.rstrip("\n").splitlines()[-1] == "23 classes, 9 connected"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "classify", "--order", "16", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, ensure_ascii=False) + "\n" == out

    def test_json_schema(self, capsys):
        _, out, _ = run(capsys, "classify", "--order", "8", "--format", "json")
        doc = json.loads(out)
        assert list(doc) == ["order", "generated_by", "classes", "totals"]
        assert doc["order"] == 8
        assert doc["generated_by"].startswith("alexq ")
        assert list(doc["totals"]) == ["classes", "connected"]
        for cls in doc["classes"]:
            assert list(cls) == ["id", "image_label", "image", "connected", "members"]
            assert list(cls["image"]) == ["group", "t"]
            for member in cls["members"]:
                assert list(member) == ["group", "phi"]

    def test_csv_has_one_row_per_class(self, capsys):
        _, out, _ = run(capsys, "classify", "--order", "16", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "id,image_label,connected,members"
        assert len(lines) == 1 + 23

    def test_connected_only(self, capsys):
        _, out, _ = run(
            capsys, "classify", "--order", "16", "--format", "json", "--connected-only"
        )
        doc = json.loads(out)
        assert doc["totals"] == {"classes": 9, "connected": 9}
        assert all(cls["connected"] for cls in doc["classes"])

    def test_jobs_flag_matches_serial(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ALEXQ_CACHE", str(tmp_path / "j1"))
        _, out1, _ = run(capsys, "classify", "--order", "8", "--format", "json")
        monkeypatch.setenv("ALEXQ_CACHE", str(tmp_path / "j2"))
        _, out2, _ = run(
            capsys, "classify", "--order", "8", "--format", "json", "--jobs", "2"
        )
        assert out1 == out2


    def test_runs_as_a_module_without_install(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "alexq", "classify", "--order", "16"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(alexq.__file__).parents[1])},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.rstrip("\n").splitlines()[-1] == "23 classes, 9 connected"

    def test_import_loads_neither_the_process_pool_nor_hashlib(self):
        # both are imported where they are used: the pool by --jobs > 1,
        # hashlib by the first cache access
        probe = (
            "import sys, alexq.cli; "
            "print(sorted({'concurrent.futures.process', 'hashlib'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(alexq.__file__).parents[1])},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"


class TestLinearVerb:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "linear", "--n", "16")
        assert code == 0
        assert out.splitlines() == [
            "class 1: {1}",
            "class 2: {3, 11}",
            "class 3: {5, 13}",
            "class 4: {7, 15}",
            "class 5: {9}",
            "5 classes",
        ]


class TestImageVerb:
    def test_identity_gives_zero(self, capsys):
        code, out, _ = run(capsys, "image", "--module", "L16/1")
        assert code == 0
        assert out.strip() == "0"

    def test_linear_image_label(self, capsys):
        _, out, _ = run(capsys, "image", "--module", "L16/5")
        assert out.strip() == "Λ4/t+3"


class TestCayleyAndCheck:
    def test_emit_then_check(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        code, _, _ = run(capsys, "cayley", "--module", "L16/3", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "check", "--table", str(path))
        assert code == 0
        assert out.strip() == "pass"

    def test_unwritable_out_path_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "cayley", "--module", "L16/3", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}")
        assert err.count("\n") == 1

    def test_check_failure_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n1 0\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "--table", str(path))
        assert code == 1
        assert out.startswith("fail: idempotence")

    def test_stdout_emission(self, capsys):
        code, out, _ = run(capsys, "cayley", "--module", "2|1")
        assert code == 0
        assert out == "2\n0 0\n1 1\n"

    def test_parse_error_has_position(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("2\n0 x\n1 0\n", encoding="utf-8")
        code, _, err = run(capsys, "check", "--table", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert "line 2" in err and "column 2" in err

    def test_rows_after_the_table_are_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("2\n0 0\n1 1\n5 5 5\n", encoding="utf-8")
        code, out, err = run(capsys, "check", "--table", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "line 4" in err
        assert err.count("\n") == 1


class TestIsoVerb:
    def test_module_specs_use_image_criterion(self, capsys):
        code, out, _ = run(capsys, "iso", "--a", "L16/3", "--b", "L16/11")
        assert code == 0
        assert "isomorphic (image-module criterion)" in out

    def test_negative_verdict_exit_one(self, capsys):
        code, out, _ = run(capsys, "iso", "--a", "L16/3", "--b", "L16/5")
        assert code == 1
        assert out.startswith("not isomorphic")

    def test_file_input_uses_oracle(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        run(capsys, "cayley", "--module", "L16/11", "--out", str(path))
        code, out, _ = run(capsys, "iso", "--a", "L16/3", "--b", str(path))
        assert code == 0
        assert "table search" in out
        assert "witness:" in out

    def test_different_orders_not_isomorphic(self, capsys):
        code, _, _ = run(capsys, "iso", "--a", "L16/1", "--b", "L4/1")
        assert code == 1


class TestCrossValidateVerb:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "cross-validate", "--order", "16")
        assert code == 0
        assert out.startswith("ok: 14 chains matched 14 classes")

    def test_usage_error_for_non_prime_power(self, capsys):
        code, _, err = run(capsys, "cross-validate", "--order", "12")
        assert code == 2
        assert err.startswith("error:")


class TestErrors:
    def test_unknown_verb(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--order", "4", "--nope")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, capsys, jobs):
        code, out, err = run(capsys, "classify", "--order", "4", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err == f"error: jobs must be positive, got {jobs}\n"

    def test_bad_module_spec(self, capsys):
        code, _, err = run(capsys, "image", "--module", "L16/4")
        assert code == 2
        assert err.startswith("error:")

    def test_cache_path_naming_a_file_only_skips_writes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("ALEXQ_CACHE", str(tmp_path / "fresh"))
        _, expected, _ = run(capsys, "classify", "--order", "4")
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setenv("ALEXQ_CACHE", str(blocker))
        code, out, err = run(capsys, "classify", "--order", "4")
        assert (code, out, err) == (0, expected, "")

    def test_jobs_with_a_cache_path_naming_a_file_match_serial(
        self, capsys, monkeypatch, tmp_path
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setenv("ALEXQ_CACHE", str(blocker))
        serial = run(capsys, "classify", "--order", "16", "--jobs", "1")
        assert serial[0] == 0
        assert run(capsys, "classify", "--order", "16", "--jobs", "2") == serial

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "classify", "--order", str(2**25))
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("order", ["64", "128", "243"])
    def test_budget_error_under_jobs_matches_serial(self, capsys, order):
        # the first carrier over budget, in carrier order, names the error
        serial = run(capsys, "classify", "--order", order, "--jobs", "1")
        assert serial[0] == 3
        assert run(capsys, "classify", "--order", order, "--jobs", "2") == serial

    @pytest.mark.parametrize(
        "argv",
        [
            ("image", "--module", "L4097/3"),
            ("cayley", "--module", "L4097/3"),
            # Z_4098 has 4098 candidates, within budget, and three Sylow parts
            ("classify", "--order", "4098"),
        ],
    )
    def test_addition_table_over_budget_exit_code(self, capsys, argv):
        # 4097^2 entries is just over the budget; the guard refuses the table
        # before any of it is built
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("spec", ["L4000000/3", "4000000|3"])
    @pytest.mark.parametrize("verb", ["image", "cayley", "iso"])
    def test_spec_over_table_budget_is_refused_when_parsed(self, capsys, verb, spec):
        # the carrier is checked before any map on it is built, so a spec far
        # over the budget costs no time or memory linear in its order
        argv = ("iso", "--a", spec, "--b", "L16/3") if verb == "iso" else (verb, "--module", spec)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert err == (
            "error: the addition table of 4000000 has 16000000000000 entries, "
            "over the budget of 16777216\n"
        )

    @pytest.mark.parametrize("verb", ["image", "cayley", "iso"])
    def test_module_spec_outside_the_invariant_factor_chain_is_refused(self, capsys, verb):
        # t = -1 on Z4 read against 2,4 would be another module; the spec is
        # refused and the chain it must be written in is named
        spec = "4,2|3,0;0,1"
        argv = ("iso", "--a", spec, "--b", "L8/1") if verb == "iso" else (verb, "--module", spec)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "2,4" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--table", "/nonexistent/t.txt")
        assert code == 2
        assert err.startswith("error:")
