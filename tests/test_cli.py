"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import greenfn
from greenfn.cli import (
    EXIT_DATA,
    EXIT_OK,
    main,
)
from greenfn.springer import export_pack, gl_springer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_imports_with_standard_library_only():
    # -S keeps site-packages off sys.path, so any third-party import fails
    env = dict(os.environ, PYTHONPATH=str(Path(greenfn.__file__).parents[1]))
    probe = subprocess.run(
        [sys.executable, "-S", "-c", "import greenfn.cli"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert probe.returncode == 0, probe.stderr


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "GL3", "--levi", "0")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# table group=GL3 levi=[0]"
        assert lines[1] == 'u\\v,"2,1:1","11,1:1"'
        assert lines[2] == "3:1,1,0"
        assert lines[3] == "21:1,q,1"
        assert lines[4] == "111:1,0,Phi3"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "GL2", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["entries"] == [["1"], ["Phi2"]]
        assert doc["assumptions"] == []

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "table", "GL3", "--levi", "1")
        _, out2, _ = run(capsys, "table", "GL3", "--levi", "1")
        assert out1 == out2

    def test_levi_index_out_of_range(self, capsys):
        code, out, err = run(capsys, "table", "GL3", "--levi", "5")
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_levi_index_repeated(self, capsys):
        code, out, err = run(capsys, "table", "GL3", "--levi", "0,0")
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error:") and "repeats" in err

    def test_non_gl_needs_pack(self, capsys):
        code, _, err = run(capsys, "table", "2E6sc")
        assert code == EXIT_DATA
        assert "pack" in err


class TestScalarAndVerify:
    def test_scalar(self, capsys):
        code, out, _ = run(capsys, "scalar", "GL2")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "group=GL2 levi=[]",
            "induced_gg_norm=2Phi1^2",
            "gg_norm=qPhi1",
            "y_norm=(1)/(q^2-q)",
        ]

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "GL2")
        assert code == EXIT_OK
        assert out.endswith("verify: OK\n")


class TestOracleCompare:
    def test_gl2(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "GL2", "--q", "2")
        assert code == EXIT_OK
        assert "2 entries OK" in out


class TestPacks:
    def test_export_and_validate(self, capsys, tmp_path):
        target = tmp_path / "gl2.json"
        code, _, _ = run(capsys, "pack-export", "GL2", "-o", str(target))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "pack-validate", str(target))
        assert code == EXIT_OK
        assert "pack OK: group=GL2" in out

    def test_validate_rejects_garbage(self, capsys, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({"format": "nope"}))
        code, _, err = run(capsys, "pack-validate", str(target))
        assert code == EXIT_DATA
        assert "error" in err

    def test_validate_rejects_pack_without_group(self, capsys, tmp_path):
        doc = export_pack(gl_springer(2))
        del doc["group"]
        target = tmp_path / "nogroup.json"
        target.write_text(json.dumps(doc))
        code, _, err = run(capsys, "pack-validate", str(target))
        assert code == EXIT_DATA
        assert err.startswith("error:") and "group" in err

    def test_validate_rejects_json_list(self, capsys, tmp_path):
        target = tmp_path / "list.json"
        target.write_text(json.dumps([export_pack(gl_springer(2))]))
        code, _, err = run(capsys, "pack-validate", str(target))
        assert code == EXIT_DATA
        assert err.startswith("error:") and "object" in err

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("classes", "below", 5),
            ("classes", "below", [["11"]]),
            ("classes", "component_group", {}),
            ("classes", "label", 2),
            ("classes", "c0_order", 1),
            ("classes", "dimension", "2"),
            ("classes", "dimension", True),
            ("systems", "chi", "1"),
            ("systems", "chi", [[1]]),
            ("systems", "chi", [{"x": 1}]),
            ("systems", "class", None),
            ("systems", "block", 0.5),
            ("blocks", "id", "0"),
            ("blocks", "levi_subset", 0),
            ("systems", "chi", ["1/0"]),
            ("classes", "c0_order", "1/0"),
            ("systems", "chi", [{"conductor": -3, "coeffs": ["1"]}]),
            ("systems", "chi", [{"conductor": 0, "coeffs": ["0", "1"]}]),
            ("systems", "chi", [{"conductor": 3, "coeffs": ["1", "2", "3", "4"]}]),
            ("systems", "chi", [{"conductor": 5, "coeffs": ["1", "2"]}]),
            ("systems", "chi", [{"conductor": 3, "coeffs": []}]),
            ("systems", "chi", [{"conductor": 2**61 - 1, "coeffs": ["1", "2"]}]),
        ],
    )
    def test_validate_rejects_value_type(self, capsys, tmp_path, section, key, value):
        doc = export_pack(gl_springer(2))
        doc[section][0][key] = value
        target = tmp_path / "typed.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, "pack-validate", str(target))
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize(
        "section,key,value",
        [("systems", "chi", ["1/0"]), ("classes", "c0_order", "1/0")],
    )
    def test_validate_rejects_zero_denominator(
        self, capsys, tmp_path, section, key, value
    ):
        doc = export_pack(gl_springer(2))
        doc[section][0][key] = value
        target = tmp_path / "zero.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, "pack-validate", str(target))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith(f"error: pack {section}[0] {key!r}")

    @pytest.mark.parametrize(
        "chi",
        [
            {"conductor": 3, "coeffs": ["1", "0"]},  # phi(3) = 2 coordinates
            {"conductor": 2**61 - 1, "coeffs": ["1"]},  # a rational: no totient
        ],
    )
    def test_validate_accepts_cyclotomic_chi(self, capsys, tmp_path, chi):
        doc = export_pack(gl_springer(2))
        doc["systems"][0]["chi"] = [chi]
        target = tmp_path / "cyclo.json"
        target.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "pack-validate", str(target))
        assert code == EXIT_OK and out.startswith("pack OK")

    def test_validate_missing_file(self, capsys):
        code, _, _ = run(capsys, "pack-validate", "/nonexistent/pack.json")
        assert code == EXIT_DATA
