"""Tests for the command-line interface."""

import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenfn
from greenfn import cli, oracle, rootdata, springer, twovar
from greenfn.cli import (
    EXIT_DATA,
    EXIT_INVARIANT,
    EXIT_MISMATCH,
    EXIT_OK,
    main,
)
from greenfn.gelfand import gg_norm
from greenfn.linalg import solve_linear
from greenfn.qpoly import QPoly, RatFunc
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

    def test_gl6_digest(self, capsys):
        # the whole table GL6, byte for byte as first recorded
        code, out, _ = run(capsys, "table", "GL6")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "69ff9dd7d5233d8d63facfc86b4aa8f22d2befc6c6a5ba0d9690fdbed12e465a"
        )

    def test_gl7_digest(self, capsys):
        # the whole table GL7, byte for byte as recorded before the integer
        # coefficient kernel
        code, out, _ = run(capsys, "table", "GL7")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f1f2bad66d90c356dd2ccac3a16019d2026fa96190c284983d268b7e4a7add06"
        )

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

    @pytest.mark.parametrize("label", ["", " ", "2", "A-1", "B0", "D1", "E3"])
    def test_label_without_cartan_type(self, capsys, label):
        code, out, err = run(capsys, "table", label)
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("label", ["E4", "E5", "E9", "F5", "G7", "G1"])
    def test_exceptional_rank_rejected(self, capsys, label):
        # the builders of E, F and G would ignore the rank in the label
        for command in ("table", "pack-export"):
            code, out, err = run(capsys, command, label)
            assert (code, out) == (EXIT_DATA, "")
            assert err.startswith(f"error: type {label} does not exist")

    @pytest.mark.parametrize("label", ["GL0", "GL-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["table"],
            ["verify"],
            ["scalar"],
            ["pack-export"],
            ["oracle-compare", "--q", "2"],
        ],
    )
    def test_gl_rank_below_one_rejected(self, capsys, argv, label):
        code, out, err = run(capsys, *argv, "--", label)
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"error: type {label} needs rank at least 1\n"


@pytest.mark.parametrize(
    "fail, message",
    [
        (lambda: solve_linear([[0]], [1]), "singular linear system"),
        (lambda: QPoly([1]).exact_div(QPoly([0, 1])), "non-exact division"),
    ],
)
def test_internal_arithmetic_error_exits_3(capsys, monkeypatch, fail, message):
    monkeypatch.setattr(cli, "green_two_var_table", lambda *args: fail())
    code, out, err = run(capsys, "table", "GL2")
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.startswith("invariant violated:") and message in err


def _gl3_twisted_classes(words, twist):
    """rootdata._twisted_classes on the elements of W(GL3) given as words in
    the simple reflections 0 and 1, with the twist given as a word too."""
    G = rootdata.gl(3)

    def element(word):
        out = rootdata.identity_mat(3)
        for i in word:
            out = rootdata.mat_mul_int(out, G.reflection(i))
        return out

    group = {G.root_permutation(w): w for w in map(element, words)}
    L0 = G.levi((), element(twist))
    return rootdata._twisted_classes(
        group,
        G.root_permutation(element(twist)),
        lambda w: rootdata.torus_fixed_order(L0, w),
    )


def _order_from_wrong_tori(monkeypatch):
    # torus orders q, q + 1 for the two classes of W(GL2): the Steinberg sum
    # 2 q^2 / (1/q + 1/(q + 1)) is not a polynomial
    tori = iter(range(2))
    monkeypatch.setattr(rootdata, "_charpoly", lambda a: QPoly([next(tori), 1]))
    return rootdata._order_polynomial(rootdata.gl(2))


def _block_structure_of_a_shear(monkeypatch):
    # a class of W(GL2) whose representative is not a permutation matrix
    G = rootdata.gl(2)
    shear = ((1, 1), (0, 1))
    cls = rootdata.TwistedClass(shear, frozenset({shear}), 1, 1, rootdata._charpoly(shear))
    return rootdata._gl_block_structure(G, G.levi(()), (cls,))


@pytest.mark.parametrize(
    "fail, message",
    [
        # {1, s0, s1, s0 s1 s0} is no group: the class of s0 in it has size 3
        (lambda mp: _gl3_twisted_classes([(), (0,), (1,), (0, 1, 0)], ()), "does not divide"),
        # twisted by s0 s1 s0, the orbit of s0 in {s0, s1} is {s1}
        (lambda mp: _gl3_twisted_classes([(0,), (1,)], (0, 1, 0)), "do not partition"),
        (_order_from_wrong_tori, "group order from the maximal tori is not polynomial"),
        (lambda mp: rootdata.mat_inv_int(((2, 0), (0, 1))), "not unimodular"),
        (_block_structure_of_a_shear, "does not permute the Levi's blocks"),
        # a zero part: the multiplicity formula divides q - 1 by q
        (lambda mp: springer.gl_centralizer_order((0,)), "centralizer order not integral"),
    ],
    ids=["orbit-size", "partition", "order-polynomial", "unimodular", "blocks", "centralizer"],
)
def test_internal_invariant_error_exits_3(capsys, monkeypatch, fail, message):
    monkeypatch.setattr(cli, "green_two_var_table", lambda *args: fail(monkeypatch))
    code, out, err = run(capsys, "table", "GL2")
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.startswith("invariant violated:") and message in err


def test_scalar_norm_not_polynomial_exits_3(capsys, monkeypatch):
    # induced_gg_norm checks that the induced norm is a polynomial
    monkeypatch.setattr(RatFunc, "is_polynomial", lambda self: False)
    code, out, err = run(capsys, "scalar", "GL2")
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.startswith("invariant violated: induced norm")


def test_verify_gelfand_graev_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gg_norm", lambda G: gg_norm(G) + QPoly([1]))
    code, out, err = run(capsys, "verify", "GL2")
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err == "invariant violated: induced_gg_norm(G, G) != gg_norm(G)\n"


@pytest.mark.parametrize(
    "owner, name, argv, message",
    [
        # the block-sum route one more than the R-matrix route
        (twovar._BlockPair, "blocksum_term", ["table", "GL2"], "mismatch: entry ("),
        # a counted value one more than the symbolic one
        (oracle.FiniteGL, "hc_two_var", ["oracle-compare", "GL2", "--q", "2"],
         "mismatch: mismatch at u="),
    ],
    ids=["cross-path", "oracle"],
)
def test_mismatch_exits_4(capsys, monkeypatch, owner, name, argv, message):
    method = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda self, *args: method(self, *args) + 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_MISMATCH, "")
    assert err.startswith(message)


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

    @pytest.mark.parametrize(
        "levi, shown, entries",
        [(None, "[]", 3), ("0", "[0]", 6), ("1", "[1]", 6), ("0,1", "[0, 1]", 9)],
    )
    def test_gl3_at_q3(self, capsys, levi, shown, entries):
        # entries: 3 classes u of GL3 times the unipotent classes v of L
        options = [] if levi is None else ["--levi", levi]
        code, out, _ = run(capsys, "oracle-compare", "GL3", "--q", "3", *options)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            f"oracle-compare group=GL3 q=3 levi={shown}: {entries} entries OK"
        )


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
            ("systems", "c", None),
            ("systems", "c", [0]),
            ("systems", "c", {"c": 0}),
            ("systems", "c", "0"),
            ("systems", "c", float("inf")),
            ("systems", "c", float("nan")),
            ("classes", "f_classes", 5),
            ("classes", "f_classes", [["1"]]),
            ("systems", "irrep", {}),
            ("systems", "irrep", [[[1]]]),
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

    @pytest.mark.parametrize("c", [0, 0.0, False, 2**70])
    def test_validate_accepts_integral_c(self, capsys, tmp_path, c):
        doc = export_pack(gl_springer(2))
        doc["systems"][0]["c"] = c
        target = tmp_path / "c.json"
        target.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "pack-validate", str(target))
        assert code == EXIT_OK and out.startswith("pack OK")

    def test_validate_rejects_empty_group(self, capsys, tmp_path):
        doc = export_pack(gl_springer(2))
        doc["group"] = ""
        target = tmp_path / "empty.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, "pack-validate", str(target))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_validate_missing_file(self, capsys):
        code, _, _ = run(capsys, "pack-validate", "/nonexistent/pack.json")
        assert code == EXIT_DATA

    @pytest.mark.parametrize("argv", [("pack-validate",), ("table", "GL3", "--pack")])
    @pytest.mark.parametrize("c0_order", ["q^5", "0"])
    def test_rejects_centralizer_not_dividing_group_order(
        self, capsys, tmp_path, argv, c0_order
    ):
        # q^5 has the right degree for the class 21 of GL3, and "0" with its
        # dimension raised by one also passes the dimension check
        doc = export_pack(gl_springer(3))
        assert doc["classes"][1]["label"] == "21"
        doc["classes"][1]["c0_order"] = c0_order
        if c0_order == "0":
            doc["classes"][1]["dimension"] = 10
        target = tmp_path / "centralizer.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(target))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("error: pack class 21: centralizer order")
        assert "does not divide |G^F| = q^3Phi1^3Phi2Phi3" in err


def test_each_relative_coset_is_built_once(monkeypatch):
    """verify and scalar share the datum's cosets: no (datum, Levi) twice."""
    builds = Counter()
    build = rootdata.relative_weyl_group

    def counted(G, L0):
        builds[G, L0] += 1
        return build(G, L0)

    # every binding, so a module that imported the function is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("greenfn") and vars(module).get("relative_weyl_group") is build:
            monkeypatch.setattr(module, "relative_weyl_group", counted)
    gl_springer.cache_clear()
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "GL4"]) == EXIT_OK
        assert main(["scalar", "GL4", "--levi", "0"]) == EXIT_OK
    assert builds and max(builds.values()) == 1
    G = gl_springer(4).group
    for subset in [(), (0,), (0, 2), (0, 1, 2)]:
        assert G.levi(subset).as_datum() is G.levi(subset).as_datum()


# ---------------------------------------------------------------------------
# fuzzing: every input maps to a documented exit code, with no traceback

_EXIT_CODES = {0, 2, 3, 4}

# digits stop at 3: GL_n above GL3 and long Cartan labels only cost time
_GROUP_LABELS = st.one_of(
    st.sampled_from(
        ["", " ", "2", "GL0", "GL1", "GL2", "GL3", "A-1", "B2ad", "2A3sc", "2E6sc", "F4"]
    ),
    st.text(alphabet="ABCDEFGLacds2 0123-", max_size=3),
)


def _run_quietly(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(
    command=st.sampled_from(["table", "scalar", "verify", "oracle-compare", "pack-export"]),
    group=_GROUP_LABELS,
    levi=st.text(alphabet="0123,- x", max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_fuzz_argv_exit_codes(command, group, levi):
    options = [] if command == "pack-export" else [f"--levi={levi}"]
    if command == "oracle-compare":
        options += ["--q", "2"]
    code, err = _run_quietly([command, *options, "--", group])
    assert code in _EXIT_CODES
    assert "Traceback" not in err


_GL2_PACK = export_pack(gl_springer(2))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _pack_fields(doc):
    """(owner, key) of every top-level field and of every field of an entry."""
    fields = [(doc, key) for key in sorted(doc)]
    for key in sorted(doc):
        if isinstance(doc[key], list):
            fields += [(entry, k) for entry in doc[key] for k in sorted(entry)]
    return fields


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzz_pack_field_exit_codes(data):
    """One field of an exported GL2 pack replaced or deleted."""
    doc = copy.deepcopy(_GL2_PACK)
    owner, key = data.draw(st.sampled_from(_pack_fields(doc)))
    if data.draw(st.booleans()):
        del owner[key]
    else:
        # ranks stay below 10: a long Cartan label only costs time
        values = _GROUP_LABELS if key == "group" else _JSON_VALUES
        owner[key] = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pack.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, err = _run_quietly(["pack-validate", path])
    assert code in _EXIT_CODES
    assert "Traceback" not in err
