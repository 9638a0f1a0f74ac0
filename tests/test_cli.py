"""Command-line interface: outputs, determinism, exit codes, file formats."""

import json

from lenswrt.cli import fpoly_from_json, main, poly_from_json, poly_to_json
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
        parsed = fpoly_from_json(json.loads(out))
        assert parsed == f_poly(LensSpace(7, 3), 2, 4)


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

    def test_kernel_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "kernel", "9", "4")
        doc = json.loads(out)
        assert doc["dimension"] == 1
        comps = [poly_from_json("z", entry) for entry in doc["basis"][0]["components"]]
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
