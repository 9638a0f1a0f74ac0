"""Command-line interface: outputs, determinism, exit codes, file formats."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lenswrt
from lenswrt import modular, selftest
from lenswrt.cli import main, poly_from_json, poly_to_json
from lenswrt.laurent import LaurentPoly
from lenswrt.skein import SkeinElement
from lenswrt.wrt import LensSpace, f_link, f_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGaussCommand:
    def test_base_case(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "2", "1", "1")
        assert code == 0
        assert "G_2(1,1) = 2" in out

    def test_geometric_zero(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "5", "0", "3")
        assert code == 0
        assert "= 0" in out

    def test_quadratic_magnitude(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "gauss", "5", "1", "0")
        doc = json.loads(out)
        assert abs(doc["re"] ** 2 + doc["im"] ** 2 - 5) < 1e-10


class TestFPolyCommand:
    def test_zero_body(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "fpoly", "4", "1", "1", "1")
        assert code == 0
        assert json.loads(out)["body"] == []

    def test_nonzero_body(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "fpoly", "9", "1", "0", "0")
        assert json.loads(out)["body"] != []

    def test_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "fpoly", "7", "3", "2", "4")
        data = json.loads(out)
        expected = f_poly(LensSpace(7, 3), 2, 4)
        assert data["prefactor_sign"] == expected.prefactor_sign
        assert poly_from_json("z", data["body"], 7) == expected.body


class TestWrtCommand:
    def test_vanishing_family_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "csv", "wrt", "4", "1", "--color", "1", "--rmax", "20"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,re,im,oracle_re,oracle_im,abs_diff"
        for line in lines[1:]:
            parts = line.split(",")
            assert abs(float(parts[1])) < 1e-10 and abs(float(parts[2])) < 1e-10

    def test_oracle_agreement_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "csv", "wrt", "5", "2", "--color", "0", "--rmax", "30",
            "--precision", "64",
        )
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[-1]) < 1e-9

    def test_kernel_vector_file(self, capsys, tmp_path):
        payload = {
            "p": 9,
            "variable": "z",
            "components": [
                [],
                [[15, -1, 1], [27, 1, 1]],
                [[12, 1, 1], [24, -1, 1]],
                [[15, -1, 1]],
                [[0, 1, 1]],
            ],
        }
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(
            capsys, "--format", "csv", "wrt", "9", "1", "--skein-file", str(path),
            "--rmax", "25", "--precision", "64",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            parts = line.split(",")
            assert abs(complex(float(parts[1]), float(parts[2]))) < 1e-10

    def test_skein_file_linearity(self, capsys, tmp_path):
        element = SkeinElement(5, [1, LaurentPoly("A", {1: 2, -1: 1}), 0])
        path = tmp_path / "element.json"
        path.write_text(json.dumps(element.to_json()))
        code, out, _ = run_cli(
            capsys, "--format", "csv", "wrt", "5", "2", "--skein-file", str(path),
            "--rmax", "12", "--precision", "64",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[-1]) < 1e-9


class TestExactCommands:
    def test_rank(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "9", "1")
        assert code == 0 and "= 4" in out

    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "14")
        assert code == 0 and out.strip() == "Determining"

    def test_classify_pseudoprime(self, capsys):
        # 399165290221 * 798330580441, a strong pseudoprime to every prime base up to 37
        code, out, _ = run_cli(capsys, "classify", "318665857834031151167461")
        assert code == 0 and out.strip() == "NonDetermining"

    def test_kernel_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "kernel", "9", "4")
        doc = json.loads(out)
        assert doc["dimension"] == 1
        comps = [poly_from_json("z", entry, 9) for entry in doc["basis"][0]["components"]]
        expected = [
            LaurentPoly("z", {84: -1, 108: 1}),
            LaurentPoly("z"),
            LaurentPoly("z", {60: 1, 72: -1}),
            LaurentPoly("z", {30: -1}),
            LaurentPoly("z", {0: 1}),
        ]
        assert comps == expected

    def test_dedekind_and_phi(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "dedekind", "4", "9")
        doc = json.loads(out)
        assert (doc["numerator"], doc["denominator"]) == (-4, 27)
        code, out, _ = run_cli(capsys, "--format", "json", "phi", "9", "4")
        assert json.loads(out)["phi"] == 3


class TestRecoverCommand:
    def test_round_trip_through_files(self, capsys, tmp_path):
        space = LensSpace(5, 2)
        element = SkeinElement(5, [LaurentPoly("A", {0: 1, 2: -3}), 2, LaurentPoly("A", {-1: 1})])
        fpolys = [poly_to_json(f_link(space, element, k).signed_body) for k in range(5)]
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"p": 5, "q": 2, "fpolys": fpolys}))
        code, out, _ = run_cli(capsys, "--format", "json", "recover", "5", "2", str(path))
        assert code == 0
        doc = json.loads(out)
        assert SkeinElement.from_json(doc["a_form"]) == element

    def test_denominator_divisible_by_the_image_prime(self, capsys, tmp_path):
        # C_0 = 1/l, l the prime of the pivot-row image: a valid file
        space = LensSpace(5, 2)
        ell = modular._modulus(1)[0]
        fpolys = [poly_to_json(f_poly(space, 0, k).signed_body.scale(Fraction(1, ell))) for k in range(5)]
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"p": 5, "q": 2, "fpolys": fpolys}))
        code, out, _ = run_cli(capsys, "--format", "json", "recover", "5", "2", str(path))
        assert code == 0
        assert json.loads(out)["z_components"] == [[[0, 1, ell]], [], []]

    def test_rank_deficient_exit_code(self, capsys, tmp_path):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"p": 9, "q": 1, "fpolys": [[] for _ in range(9)]}))
        code, out, err = run_cli(capsys, "--format", "json", "recover", "9", "1", str(path))
        assert code == 3
        assert json.loads(err)["error"]["name"] == "RankDeficient"


class TestSelftestCommand:
    def test_single_criterion(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--only", "1")
        assert code == 0
        assert out.startswith("[PASS]  1")

    def test_subset(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--only", "7,9")
        assert code == 0
        assert out.count("[PASS]") == 2

    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "selftest", "--only", "1,7")
        assert code == 0
        records = json.loads(out)["criteria"]
        assert [list(record) for record in records] == [["number", "title", "passed", "detail", "seconds"]] * 2
        assert [(r["number"], r["passed"], r["detail"]) for r in records] == [
            (1, True, "G_2(1,1) = 2"), (7, True, "rank L(9,1) = 4, rank L(9,4) = 4")]
        assert all(record["seconds"] >= 0 for record in records)

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--format", "csv", "--only", "1,7")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["number", "title", "passed", "detail", "seconds"]
        assert [row[:4] for row in rows[1:]] == [
            ["1", "Gauss-sum base case G_2(1,1) = 2", "True", "G_2(1,1) = 2"],
            ["7", "rank four at order nine", "True", "rank L(9,1) = 4, rank L(9,4) = 4"]]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failure_exit_code_in_every_format(self, capsys, monkeypatch, fmt):
        # the records are read from selftest.CRITERIA at call time
        monkeypatch.setattr(selftest, "CRITERIA", ((1, "stand-in", lambda: (False, "a, b")),))
        code, out, _ = run_cli(capsys, "--format", fmt, "selftest", "--only", "1")
        assert code == 1
        if fmt == "json":
            assert json.loads(out)["criteria"][0]["passed"] is False
        else:
            assert list(csv.reader(io.StringIO(out)))[1][2:4] == ["False", "a, b"]

    @pytest.mark.parametrize("only", ["", "0", "13", "99", "1,13", "1,x"])
    def test_invalid_selection(self, capsys, only):
        code, out, err = run_cli(capsys, "selftest", "--only", only)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error ["), err


class TestDeterminismAndValidation:
    def test_identical_invocations_identical_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "--format", "json", "kernel", "9", "1")
        _, out2, _ = run_cli(capsys, "--format", "json", "kernel", "9", "1")
        assert out1 == out2

    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "rank", "9", "3")
        assert code == 2
        assert "error" in err

    def test_wrt_requires_one_source(self, capsys):
        code, _, _ = run_cli(capsys, "wrt", "5", "2")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "--format", "json", "--output", str(path), "rank", "5", "2")
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["rank"] == 3


OUTPUT_COMMANDS = (
    ("gauss", "5", "1", "0"),
    ("dedekind", "4", "9"),
    ("phi", "9", "4"),
    ("fpoly", "5", "2", "1", "2"),
    ("wrt", "5", "2", "--color", "0", "--rmax", "8"),
    ("rank", "5", "2"),
    ("kernel", "9", "4"),
    ("classify", "14"),
    ("recover", "5", "2", "<samples>"),
    ("selftest", "--only", "1"),
)
# the selftest's own timings: "(0.00s)" in text, the seconds value in json, the last cell in csv
SELFTEST_SECONDS = re.compile(r"\(\d+\.\d+s\)$|(?<=\"seconds\": )[\d.e-]+|(?<=,)[\d.e-]+$", re.M)


class TestOutputFile:
    """--output gets exactly the bytes that stdout would, and stdout gets none."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("command", OUTPUT_COMMANDS, ids=lambda command: command[0])
    def test_file_bytes_equal_stdout(self, capsys, tmp_path, command, fmt):
        argv = ["--format", fmt, *command]
        if command[0] == "recover":
            element = SkeinElement(5, [LaurentPoly("A", {0: 1, 2: -3}), 2, LaurentPoly("A", {-1: 1})])
            fpolys = [poly_to_json(f_link(LensSpace(5, 2), element, k).signed_body) for k in range(5)]
            argv[-1] = str(tmp_path / "samples.json")
            (tmp_path / "samples.json").write_text(json.dumps({"p": 5, "q": 2, "fpolys": fpolys}))
        code, printed, _ = run_cli(capsys, *argv)
        target = tmp_path / "out"
        file_code, out, _ = run_cli(capsys, "--output", str(target), *argv)
        written = target.read_bytes().decode()
        assert (file_code, out) == (code, "") and code == 0
        if fmt == "json":
            json.loads(written)
        if command[0] == "selftest":
            written, printed = (SELFTEST_SECONDS.sub("<t>", text) for text in (written, printed))
        assert written == printed


class TestInvalidInput:
    """Malformed input exits 2 with one error line, never a traceback."""

    @staticmethod
    def assert_input_error(code, err):
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error ["), err

    def recover(self, capsys, tmp_path, payload):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(payload))
        return run_cli(capsys, "recover", "5", "2", str(path))

    def test_missing_key(self, capsys, tmp_path):
        fpolys = [[[0, {"coeffs": [[1, 1, 1]]}]]] + [[] for _ in range(4)]
        code, _, err = self.recover(capsys, tmp_path, {"p": 5, "q": 2, "fpolys": fpolys})
        self.assert_input_error(code, err)

    def test_wrong_shape(self, capsys, tmp_path):
        fpolys = [[[0, 1]]] + [[] for _ in range(4)]
        code, _, err = self.recover(capsys, tmp_path, {"p": 5, "q": 2, "fpolys": fpolys})
        self.assert_input_error(code, err)

    def test_zero_denominator(self, capsys, tmp_path):
        fpolys = [[[0, 1, 0]]] + [[] for _ in range(4)]
        code, _, err = self.recover(capsys, tmp_path, {"p": 5, "q": 2, "fpolys": fpolys})
        self.assert_input_error(code, err)

    def test_classify_beyond_primality_bound(self, capsys):
        code, _, err = run_cli(capsys, "classify", "3317044064679887385961981")
        self.assert_input_error(code, err)

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "recover", "5", "2", str(tmp_path / "absent.json"))
        self.assert_input_error(code, err)

    def test_recover_without_fpolys(self, capsys, tmp_path):
        code, _, err = self.recover(capsys, tmp_path, {"p": 5, "q": 2})
        self.assert_input_error(code, err)

    def test_skein_file_without_coeffs(self, capsys, tmp_path):
        path = tmp_path / "element.json"
        path.write_text(json.dumps({"p": 5}))
        code, _, err = run_cli(capsys, "wrt", "5", "2", "--skein-file", str(path))
        self.assert_input_error(code, err)

    def test_empty_level_range(self, capsys):
        code, _, err = run_cli(capsys, "wrt", "5", "2", "--color", "0", "--rmin", "10", "--rmax", "3")
        self.assert_input_error(code, err)

    def test_coefficient_order_must_divide_p(self, capsys, tmp_path):
        # Phi_2000003 would take minutes to build; the order is refused first
        fpolys = [[[0, {"order": 2000003, "coeffs": [[1, 1, 1]]}]]] + [[] for _ in range(4)]
        code, _, err = self.recover(capsys, tmp_path, {"p": 5, "q": 2, "fpolys": fpolys})
        self.assert_input_error(code, err)
        assert "order 2000003" in err

    def test_skein_file_order_must_divide_p(self, capsys, tmp_path):
        path = tmp_path / "element.json"
        coeffs = [[[0, {"order": 7, "coeffs": [[1, 1, 1]]}]], [], []]
        path.write_text(json.dumps({"p": 5, "coeffs": coeffs}))
        code, _, err = run_cli(capsys, "wrt", "5", "2", "--skein-file", str(path))
        self.assert_input_error(code, err)

    def test_repeated_exponent(self, capsys, tmp_path):
        fpolys = [[[1, 1, 1], [1, 2, 1]]] + [[] for _ in range(4)]
        code, _, err = self.recover(capsys, tmp_path, {"p": 5, "q": 2, "fpolys": fpolys})
        self.assert_input_error(code, err)
        assert "exponent 1 listed twice" in err

    def test_repeated_power(self, capsys, tmp_path):
        fpolys = [[[0, {"order": 5, "coeffs": [[1, 1, 1], [1, 2, 1]]}]]] + [[] for _ in range(4)]
        code, _, err = self.recover(capsys, tmp_path, {"p": 5, "q": 2, "fpolys": fpolys})
        self.assert_input_error(code, err)
        assert "power 1 listed twice" in err

    def test_repeated_key_in_recover_file(self, capsys, tmp_path):
        space = LensSpace(5, 2)
        fpolys = [poly_to_json(f_poly(space, 0, k).signed_body) for k in range(5)]
        path = tmp_path / "samples.json"
        path.write_text('{"p": 7, ' + json.dumps({"p": 5, "q": 2, "fpolys": fpolys})[1:])
        code, _, err = run_cli(capsys, "recover", "5", "2", str(path))
        self.assert_input_error(code, err)
        assert "key 'p' listed twice" in err

    def test_repeated_key_in_skein_file(self, capsys, tmp_path):
        path = tmp_path / "element.json"
        path.write_text('{"p": 7, ' + json.dumps(SkeinElement(5, [1, 0, 2]).to_json())[1:])
        code, _, err = run_cli(capsys, "wrt", "5", "2", "--skein-file", str(path), "--rmax", "4")
        self.assert_input_error(code, err)
        assert "key 'p' listed twice" in err

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "absent" / "out.txt"
        code, _, err = run_cli(capsys, "--output", str(target), "rank", "5", "2")
        self.assert_input_error(code, err)


class TestSkeinFileForms:
    def test_a_form_matches_z_form(self, capsys, tmp_path):
        element = SkeinElement(7, [LaurentPoly("A", {-1: 2, 2: -1}), 3, 0, LaurentPoly("A", {1: 1})])
        a_path, z_path = tmp_path / "a.json", tmp_path / "z.json"
        a_path.write_text(json.dumps(element.to_json()))
        comps = [poly_to_json(c.subst_signed_power(7, "z")) for c in element.coeffs]
        z_path.write_text(json.dumps({"p": 7, "variable": "z", "components": comps}))
        docs = []
        for path in (a_path, z_path):
            code, out, _ = run_cli(capsys, "--format", "json", "wrt", "7", "3", "--skein-file", str(path),
                                   "--rmax", "20", "--precision", "64")
            assert code == 0
            docs.append(json.loads(out)["rows"])
        for a_row, z_row in zip(*docs):
            for key in ("re", "im", "oracle_re", "oracle_im"):
                assert abs(a_row[key] - z_row[key]) < 1e-12

    def test_fewer_components_than_colors(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"p": 9, "variable": "z", "components": [[[0, 1, 1]]]}))
        code, out, _ = run_cli(capsys, "--format", "csv", "wrt", "9", "1", "--skein-file", str(path), "--rmax", "12")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[-1]) < 1e-9


# the child imports what a CLI process imports, then runs the commands in order
# and records after each whether mpmath is loaded
_STARTUP_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
import lenswrt.cli, lenswrt.selftest
seen = {"import": sorted(m for m in ("mpmath", "dataclasses") if m in sys.modules)}
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        seen[argv[0]] = [lenswrt.cli.main(argv), "mpmath" in sys.modules]
print(json.dumps(seen))
"""


def test_exact_commands_do_not_load_mpmath(tmp_path):
    fpolys = [poly_to_json(f_poly(LensSpace(5, 2), 0, k).signed_body) for k in range(5)]
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"p": 5, "q": 2, "fpolys": fpolys}))
    commands = [["dedekind", "3", "7"], ["phi", "7", "3"], ["classify", "9"], ["fpoly", "7", "3", "2", "4"],
                ["rank", "7", "3"], ["kernel", "9", "1"], ["recover", "5", "2", str(path)],
                ["gauss", "5", "1", "0"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lenswrt.__file__)))
    child = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, json.dumps(commands)],
                           capture_output=True, text=True, env=env, timeout=120, check=True)
    seen = json.loads(child.stdout)
    assert seen.pop("import") == []
    assert seen.pop("gauss") == [0, True]  # the probe sees the import where there is one
    assert seen == {argv[0]: [0, False] for argv in commands[:-1]}


# --- fuzzed command lines: exit 0, 2 or 3, never a traceback ------------------------

small = st.integers(-2, 12)
json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 30), st.just("x"), st.just([]))
coeff_doc = st.one_of(
    st.tuples(st.integers(-2, 3), st.integers(-2, 3)).map(list),
    st.fixed_dictionaries({"order": st.integers(-1, 30), "coeffs": st.lists(st.one_of(
        st.tuples(st.integers(0, 5), st.integers(-2, 3), st.integers(1, 3)).map(list),
        st.lists(st.integers(-2, 30), max_size=4)), max_size=3)}),
    json_leaf,
)
poly_doc = st.one_of(
    st.lists(st.one_of(
        st.tuples(st.integers(-5, 5), coeff_doc).map(list),
        st.tuples(st.integers(-5, 5), st.integers(-2, 3), st.integers(-2, 3)).map(list),
        json_leaf,
    ), max_size=3),
    json_leaf,
)


def documents(p: str, q: str):
    """Skein and sample files, mostly for the command's own (p, q) and sized
    for it, so that decoding and solving are reached."""
    p, q = int(p), int(q)
    order, other = st.one_of(st.just(p), small), st.one_of(st.just(q), small)
    divisor = st.sampled_from([d for d in range(1, p + 1) if p % d == 0])
    cyclotomic = divisor.flatmap(lambda n: st.fixed_dictionaries({"order": st.just(n), "coeffs": st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(-2, 2), st.integers(1, 3)).map(list), max_size=2)}))
    valid_poly = st.lists(st.one_of(
        st.tuples(st.integers(-5, 5), st.integers(-2, 2), st.integers(1, 3)).map(list),
        st.tuples(st.integers(-5, 5), cyclotomic).map(list),
    ), max_size=3)
    poly = st.one_of(valid_poly, valid_poly, valid_poly, poly_doc)
    polys = st.one_of(*(st.lists(poly, min_size=n, max_size=n) for n in {p, p // 2 + 1}),
                      st.lists(poly_doc, max_size=13), json_leaf)
    return st.one_of(
        st.fixed_dictionaries({"p": order, "q": other, "fpolys": polys}),
        st.fixed_dictionaries({"p": order, "coeffs": polys}),
        st.fixed_dictionaries({"p": order, "variable": st.just("z"), "components": polys}),
        st.dictionaries(st.sampled_from(["p", "q", "fpolys", "coeffs", "components"]), json_leaf, max_size=3),
        json_leaf,
        st.just("{not json"),
    )


def _num(strategy):
    return strategy.map(str)


FILE = "<file>"
lens = st.sampled_from([(str(p), str(q)) for p in range(2, 13) for q in range(1, p) if math.gcd(p, q) == 1])
commands = st.one_of(
    st.tuples(st.just("gauss"), _num(small), _num(st.integers(-3, 20)), _num(st.integers(-3, 20))),
    st.tuples(st.just("dedekind"), _num(small), _num(small)),
    st.tuples(st.just("phi"), _num(small), _num(small)),
    st.tuples(st.just("fpoly"), _num(small), _num(small), _num(st.integers(-4, 13)), _num(st.integers(-1, 13))),
    st.tuples(st.just("wrt"), _num(small), _num(small), st.just("--color"), _num(st.integers(-4, 13)),
              st.just("--rmin"), _num(st.integers(-1, 20)), st.just("--rmax"), _num(st.integers(-1, 20))),
    st.tuples(lens, _num(st.integers(-1, 20))).map(
        lambda t: ("wrt", *t[0], "--skein-file", FILE, "--rmax", t[1])),
    st.tuples(st.just("rank"), _num(st.integers(-2, 10)), _num(small)),
    st.tuples(st.just("kernel"), _num(st.integers(-2, 9)), _num(small)),
    st.tuples(st.just("classify"), _num(st.integers(-3, 40))),
    lens.map(lambda pq: ("recover", *pq, FILE)),
    st.tuples(st.just("selftest"), st.just("--only"), st.sampled_from(["1", "0", "13", "1,x", ""])),
)
options = st.tuples(st.sampled_from(["text", "json", "csv"]), st.sampled_from([53, 64, 128, 52]))


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(commands, options, st.data())
def test_fuzzed_command_lines(tmp_path_factory, command, opts, data):
    argv = ["--format", opts[0], "--precision", str(opts[1]), *command]
    if FILE in command:
        document = data.draw(documents(command[1], command[2]))
        path = tmp_path_factory.mktemp("fuzz") / "input.json"
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        argv[argv.index(FILE)] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
