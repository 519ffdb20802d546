import hashlib
import json

import numpy as np
import pytest

import persline.cli
from persline import serialize_bifiltration
from persline.cli import run
from generators import random_bifiltered_complex

TWO_VERTEX_EDGE = "bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 1\n"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def assert_one_error_line(captured):
    assert captured.out == ""
    assert captured.err.startswith("persline: error: ")
    assert captured.err.count("\n") == 1


@pytest.fixture
def fixture_complex(tmp_path):
    path = tmp_path / "M.bif"
    path.write_text(TWO_VERTEX_EDGE)
    return str(path)


class TestBarcode:
    def test_fixture_barcode(self, fixture_complex, capsys):
        code = run(["barcode", "--input", fixture_complex, "--line", "1,1:0,0", "--degree", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [
            {"degree": 0, "birth": 0.0, "death": 1.0},
            {"degree": 0, "birth": 0.0, "death": None},
        ]

    def test_line_canonicalized_before_use(self, fixture_complex, capsys):
        run(["barcode", "--input", fixture_complex, "--line", "2,2:1,1", "--degree", "0"])
        first = capsys.readouterr().out
        run(["barcode", "--input", fixture_complex, "--line", "1,1:0,0", "--degree", "0"])
        assert capsys.readouterr().out == first

    def test_output_file(self, fixture_complex, tmp_path):
        out = tmp_path / "bars.json"
        code = run([
            "barcode", "--input", fixture_complex, "--line", "1,1:0,0",
            "--degree", "0", "--output", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())


class TestBottleneck:
    def test_distance_between_saved_barcodes(self, fixture_complex, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["barcode", "--input", fixture_complex, "--line", "1,1:0,0", "--degree", "0",
             "--output", str(a)])
        run(["barcode", "--input", fixture_complex, "--line", "1,0.5:0,0", "--degree", "0",
             "--output", str(b)])
        code = run(["bottleneck", "--input", str(a), str(b)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] >= 0

    def test_differing_essential_counts_print_null(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('[{"degree": 0, "birth": 0.0, "death": null}]')
        b.write_text('[{"degree": 0, "birth": 0.0, "death": null},'
                     ' {"degree": 0, "birth": 1.0, "death": null}]')
        assert run(["bottleneck", "--input", str(a), str(b)]) == 0
        assert strict_loads(capsys.readouterr().out) == {"distance": None}

    @pytest.mark.parametrize("birth", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_birth_is_usage_error(self, tmp_path, capsys, birth):
        a = tmp_path / "a.json"
        a.write_text(f'[{{"degree": 0, "birth": {birth}, "death": 1.0}}]')
        assert run(["bottleneck", "--input", str(a), str(a)]) == 2
        assert "a.json" in capsys.readouterr().err

    def test_death_below_birth_is_usage_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('[{"degree": 0, "birth": 1.0, "death": 0.0}]')
        b.write_text("[]")
        assert run(["bottleneck", "--input", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "a.json" in captured.err

    def test_zero_length_interval_allowed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('[{"degree": 0, "birth": 1.0, "death": 1.0}]')
        b.write_text("[]")
        assert run(["bottleneck", "--input", str(a), str(b)]) == 0
        assert strict_loads(capsys.readouterr().out) == {"distance": 0.0}


class TestRank:
    def test_fixture_rank(self, fixture_complex, capsys):
        code = run(["rank", "--input", fixture_complex, "--u", "0,0", "--v", "2,2", "--degree", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == 1

    def test_incomparable_corners_usage_error(self, fixture_complex, capsys):
        for u, v in [("1,0", "0,1"), ("2,2", "0,0")]:
            code = run(["rank", "--input", fixture_complex, "--u", u, "--v", v, "--degree", "0"])
            assert code == 2
            assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("u, v", [("0", "2,2"), ("0,0,0", "2,2,2"), ("0,0", "2")])
    def test_grade_of_wrong_length_usage_error(self, fixture_complex, capsys, u, v):
        code = run(["rank", "--input", fixture_complex, "--u", u, "--v", v, "--degree", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("persline: error: grade ")
        assert "expected 2" in captured.err


class TestMatchdist:
    def test_json_output(self, fixture_complex, tmp_path, capsys):
        other = tmp_path / "N.bif"
        other.write_text("bifiltration 2\n0 0 ; 1 1\n")
        code = run(["matchdist", "--input", fixture_complex, str(other),
                    "--grid", "3x3", "--degree", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"value", "argmax", "table"}

    def test_infinite_distances_print_null(self, tmp_path, capsys):
        one = tmp_path / "one.bif"
        two = tmp_path / "two.bif"
        one.write_text("bifiltration 2\n0 0 ; 0 0\n")
        two.write_text("bifiltration 2\n0 0 ; 0 0\n0 1 ; 0.5 0.5\n")
        code = run(["matchdist", "--input", str(one), str(two), "--grid", "2x2", "--degree", "0"])
        assert code == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["value"] is None
        assert [row["distance"] for row in payload["table"]] == [None] * len(payload["table"])

    def test_csv_output(self, fixture_complex, tmp_path, capsys):
        other = tmp_path / "N.bif"
        other.write_text("bifiltration 2\n0 0 ; 1 1\n")
        code = run(["matchdist", "--input", fixture_complex, str(other),
                    "--grid", "2x2", "--degree", "0", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "m,b,mStar,distance"

    def test_grid_env_var_default(self, fixture_complex, tmp_path, capsys, monkeypatch):
        other = tmp_path / "N.bif"
        other.write_text("bifiltration 2\n0 0 ; 1 1\n")
        monkeypatch.setenv("PERSLINE_GRID", "2x2")
        code = run(["matchdist", "--input", fixture_complex, str(other), "--degree", "0"])
        assert code == 0
        with_env = capsys.readouterr().out
        code = run(["matchdist", "--input", fixture_complex, str(other),
                    "--grid", "2x2", "--degree", "0"])
        assert with_env == capsys.readouterr().out


class TestVerify:
    def test_shift_verification_passes(self, fixture_complex, capsys):
        code = run(["verify-external", "--input", fixture_complex, "--construction", "shift",
                    "--epsilon", "0.25", "--grid", "4x3", "--degree", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["globalPass"] is True

    def test_perturb_requires_seed(self, fixture_complex, capsys):
        code = run(["verify-external", "--input", fixture_complex, "--construction", "perturb",
                    "--epsilon", "0.1", "--grid", "2x2"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("construction", ["shift", "perturb"])
    @pytest.mark.parametrize("epsilon", ["inf", "nan", "1e308"])
    def test_huge_or_non_finite_epsilon_usage_error(self, fixture_complex, capsys,
                                                   construction, epsilon):
        code = run(["verify-external", "--input", fixture_complex, "--construction", construction,
                    "--epsilon", epsilon, "--seed", "5", "--grid", "2x2"])
        assert code == 2
        assert_one_error_line(capsys.readouterr())

    def test_perturb_with_seed(self, fixture_complex, capsys):
        code = run(["verify-external", "--input", fixture_complex, "--construction", "perturb",
                    "--epsilon", "0.1", "--seed", "5", "--grid", "3x3", "--degree", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["globalPass"] is True

    def test_internal_verification(self, fixture_complex, capsys):
        code = run(["verify-internal", "--input", fixture_complex,
                    "--line", "1,1:0,0", "--line2", "1,0.5:0,0", "--degree", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["globalPass"] is True
        assert "eta" in payload


class TestLargeCoordinates:
    """Grades and offsets near 1e5 and 1e8 put lines in canonical form without error."""

    @pytest.mark.parametrize("big", ["1e5", "1e8"])
    def test_matchdist(self, tmp_path, capsys, big):
        m, n = tmp_path / "M.bif", tmp_path / "N.bif"
        m.write_text(f"bifiltration 2\n0 0 ; {big} 0.3\n0 1 ; {big} 7.1\n1 0 1 ; {big} 7.1\n")
        n.write_text(f"bifiltration 2\n0 0 ; {big} 0.5\n0 1 ; {big} 7.0\n1 0 1 ; {big} 7.5\n")
        assert run(["matchdist", "--input", str(m), str(n), "--grid", "4x3", "--degree", "0"]) == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["value"] > 0

    @pytest.mark.parametrize("big", ["1e5", "1e8"])
    def test_verify_internal(self, tmp_path, capsys, big):
        m = tmp_path / "M.bif"
        m.write_text(f"bifiltration 2\n0 0 ; {big} 0.3\n0 1 ; {big} 7.1\n1 0 1 ; {big} 7.1\n")
        assert run(["verify-internal", "--input", str(m), "--line", f"1,0.3:{big},7.1",
                    "--line2", f"0.6,1:{big},0.3", "--degree", "0"]) == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["globalPass"] is True


class TestOverflowAtTheFloatRange:
    """Finite grades and lines whose push or offset box leaves the float range are usage errors."""

    def test_barcode_push_overflow(self, tmp_path, capsys):
        m = tmp_path / "M.bif"
        m.write_text("bifiltration 2\n0 0 ; 1e308 0\n")
        assert run(["barcode", "--input", str(m), "--line", "1,1:-1e308,1e308",
                    "--degree", "0"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "simplex (0,)" in captured.err and "overflows" in captured.err

    def test_matchdist_offset_box_overflow(self, tmp_path, capsys):
        m, n = tmp_path / "M.bif", tmp_path / "N.bif"
        m.write_text("bifiltration 2\n0 0 ; -1e308 -1e308\n")
        n.write_text("bifiltration 2\n0 0 ; 1e308 1e308\n")
        assert run(["matchdist", "--input", str(m), str(n), "--grid", "2x2", "--degree", "0"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "offset box" in captured.err and "nan" not in captured.err


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert run(["barcode", "--input", "/nonexistent.bif", "--line", "1,1:0,0",
                    "--degree", "0"]) == 2
        assert "/nonexistent.bif" in capsys.readouterr().err

    def test_parse_error_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.bif"
        bad.write_text("bifiltration 2\ngarbage\n")
        assert run(["barcode", "--input", str(bad), "--line", "1,1:0,0", "--degree", "0"]) == 2
        err = capsys.readouterr().err
        assert "bad.bif" in err and "line 2" in err

    def test_inadmissible_line(self, fixture_complex, capsys):
        for line in ["1,0:0,0", "0,1:0,0"]:
            assert run(["barcode", "--input", fixture_complex, "--line", line,
                        "--degree", "0"]) == 2
            assert_one_error_line(capsys.readouterr())

    def test_bad_grid(self, fixture_complex, tmp_path, capsys):
        other = tmp_path / "N.bif"
        other.write_text("bifiltration 2\n0 0 ; 1 1\n")
        for grid in ["bogus", "0x3"]:
            assert run(["matchdist", "--input", fixture_complex, str(other),
                        "--grid", grid, "--degree", "0"]) == 2
            assert_one_error_line(capsys.readouterr())

    def test_unwritable_output_is_usage_error(self, fixture_complex, tmp_path, capsys):
        out = tmp_path / "missing" / "bars.json"
        assert run(["barcode", "--input", fixture_complex, "--line", "1,1:0,0",
                    "--degree", "0", "--output", str(out)]) == 2
        assert "bars.json" in capsys.readouterr().err

    def test_internal_error_exits_three_with_one_line(self, tmp_path, capsys, monkeypatch):
        def broken(A, B):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(persline.cli, "bottleneck_distance", broken)
        a = tmp_path / "a.json"
        a.write_text("[]")
        assert run(["bottleneck", "--input", str(a), str(a)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "persline: internal error: RuntimeError: boom second line\n"

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestDegreeAboveDimension:
    """A degree above the complex's dimension has no classes; a negative degree is an error."""

    def test_barcode_prints_empty_list(self, fixture_complex, capsys):
        code = run(["barcode", "--input", fixture_complex, "--line", "1,1:0,0", "--degree", "2"])
        assert code == 0
        assert capsys.readouterr().out == "[]\n"

    def test_matchdist_value_is_zero(self, fixture_complex, tmp_path, capsys):
        other = tmp_path / "N.bif"
        other.write_text("bifiltration 2\n0 0 ; 1 1\n")
        # degree 1 is above N's dimension; M has an edge but no cycle
        code = run(["matchdist", "--input", fixture_complex, str(other),
                    "--grid", "2x2", "--degree", "1"])
        assert code == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["value"] == 0.0
        assert {row["distance"] for row in payload["table"]} == {0.0}

    def test_verify_external_passes_with_zero_lhs(self, fixture_complex, capsys):
        code = run(["verify-external", "--input", fixture_complex, "--construction", "shift",
                    "--epsilon", "0.25", "--grid", "2x2", "--degree", "2"])
        assert code == 0
        payload = strict_loads(capsys.readouterr().out)
        assert {e["lhs"] for e in payload["entries"]} == {0.0}

    def test_verify_internal_passes_with_zero_lhs(self, fixture_complex, capsys):
        code = run(["verify-internal", "--input", fixture_complex,
                    "--line", "1,1:0,0", "--line2", "1,0.5:0,0", "--degree", "1"])
        assert code == 0
        assert strict_loads(capsys.readouterr().out)["entries"][0]["lhs"] == 0.0

    @pytest.mark.parametrize("command", ["barcode", "matchdist", "verify-external"])
    def test_negative_degree_is_usage_error(self, fixture_complex, capsys, command):
        argv = {
            "barcode": ["barcode", "--input", fixture_complex, "--line", "1,1:0,0"],
            "matchdist": ["matchdist", "--input", fixture_complex, fixture_complex,
                          "--grid", "2x2"],
            "verify-external": ["verify-external", "--input", fixture_complex,
                                "--construction", "shift", "--epsilon", "0.1", "--grid", "2x2"],
        }[command]
        assert run(argv + ["--degree", "-1"]) == 2
        assert "degree -1" in capsys.readouterr().err


# sha1 of stdout for fixed inputs, taken from the implementation that restricted
# and reduced each line on its own. Batched line evaluation must print the same
# bytes. The barcode cases push a -0.0 grade: Python's max keeps the first of two
# equal zeros, where np.maximum may return either.
PINNED_OUTPUT_SHA1 = {
    "matchdist-json-d0": "ed4442be601d66b7820c9286e140987b6ff19310",
    "matchdist-json-d1": "f122e8b9c3445de383d9a05790c7b6d983daf9f9",
    "matchdist-csv-d0": "fc2732ffd2f7aa54c14f7d6fb9e082f36380b522",
    "matchdist-csv-d1": "611457e5d5b63241519e8f78681dfbf3fb73cf58",
    "verify-shift-d1": "91137256676dd94bfd94e93f7d8dca91b5c231f5",
    "verify-perturb-d0": "2653adb6cfddae73fdf0bfa235e01c96bbb7c55b",
    "barcode-signed-zero-d0": "eef1b3f231daffffa708681a7ae61af1cf8b65c5",
    "barcode-signed-zero-d1": "40bf519bde41bf5c01859e11d54e99405392f5a9",
    "barcode-raw-line-d0": "12bffd89cdffc2d0312463bb72b420be91b024e4",
    "verify-internal-raw-lines-d0": "12e5802f09438a64ffcedf948dfb0ca5703204f0",
    "matchdist-three-parameter-d0": "648a3c2a428a439ba7ba92fbe7d5bb5a3bd1a028",
    "matchdist-three-parameter-d1": "1a1504076f1d92f789553e554dbda08d904febbd",
    "verify-perturb-d1": "3ce867af95b49441cb4c8d02c6610a515aab02d8",
}
SIGNED_ZERO = (
    "bifiltration 2\n0 0 ; -0.0 0.0\n0 1 ; 0.0 -0.0\n0 2 ; -0.0 -0.0\n"
    "1 0 1 ; 0.0 0.5\n1 0 2 ; -0.0 0.25\n1 1 2 ; 0.5 -0.0\n"
)
THREE_PARAMETER_M = (
    "bifiltration 3\n0 0 ; 0 0 0\n0 1 ; 0.5 0 1\n0 2 ; 0 1.5 0.25\n"
    "1 0 1 ; 1 0.5 1\n1 0 2 ; 0.5 1.5 0.25\n1 1 2 ; 1 2 1\n"
)
THREE_PARAMETER_N = (
    "bifiltration 3\n0 0 ; 0.25 0 0\n0 1 ; 0.5 0.5 1\n0 2 ; 0 1 0.5\n"
    "1 0 1 ; 0.75 0.5 1.5\n1 1 2 ; 1 1 1\n"
)


def test_pinned_output_bytes(tmp_path, capsys):
    rng = np.random.default_rng(13)
    m_path, n_path, z_path = tmp_path / "M.bif", tmp_path / "N.bif", tmp_path / "Z.bif"
    m_path.write_text(serialize_bifiltration(random_bifiltered_complex(rng, 6, 16)))
    n_path.write_text(serialize_bifiltration(random_bifiltered_complex(rng, 6, 16)))
    z_path.write_text(SIGNED_ZERO)
    m3_path, n3_path = tmp_path / "M3.bif", tmp_path / "N3.bif"
    m3_path.write_text(THREE_PARAMETER_M)
    n3_path.write_text(THREE_PARAMETER_N)
    M, N, Z, M3, N3 = str(m_path), str(n_path), str(z_path), str(m3_path), str(n3_path)
    cases = {
        "matchdist-json-d0": ["matchdist", "--input", M, N, "--grid", "5x4", "--degree", "0"],
        "matchdist-json-d1": ["matchdist", "--input", M, N, "--grid", "5x4", "--degree", "1"],
        "matchdist-csv-d0": ["matchdist", "--input", M, N, "--grid", "5x4", "--degree", "0",
                             "--format", "csv"],
        "matchdist-csv-d1": ["matchdist", "--input", M, N, "--grid", "5x4", "--degree", "1",
                             "--format", "csv"],
        "verify-shift-d1": ["verify-external", "--input", M, "--construction", "shift",
                            "--epsilon", "0.25", "--grid", "4x3", "--degree", "1"],
        "verify-perturb-d0": ["verify-external", "--input", N, "--construction", "perturb",
                              "--epsilon", "0.1", "--seed", "5", "--grid", "4x3"],
        "barcode-signed-zero-d0": ["barcode", "--input", Z, "--line", "1,1:0,0", "--degree", "0"],
        "barcode-signed-zero-d1": ["barcode", "--input", Z, "--line", "1,0.5:0,0",
                                   "--degree", "1"],
        # raw lines: the CLI rescales the direction and slides the offset
        "barcode-raw-line-d0": ["barcode", "--input", M, "--line", "2,1:1,-1", "--degree", "0"],
        "verify-internal-raw-lines-d0": ["verify-internal", "--input", M, "--line", "2,1:1,1",
                                         "--line2", "1,3:0.5,-2", "--degree", "0"],
        "matchdist-three-parameter-d0": ["matchdist", "--input", M3, N3, "--grid", "3x2",
                                         "--degree", "0"],
        # M3 has an H1 class and N3 none: every distance is infinite, printed as null
        "matchdist-three-parameter-d1": ["matchdist", "--input", M3, N3, "--grid", "3x2",
                                         "--degree", "1"],
        "verify-perturb-d1": ["verify-external", "--input", M, "--construction", "perturb",
                              "--epsilon", "0.1", "--seed", "5", "--grid", "4x3",
                              "--degree", "1"],
    }
    got = {}
    for name, argv in cases.items():
        assert run(argv) == 0, name
        got[name] = hashlib.sha1(capsys.readouterr().out.encode()).hexdigest()
    assert got == PINNED_OUTPUT_SHA1


class TestDeterminism:
    def test_byte_identical_reruns(self, fixture_complex, capsys):
        invocations = [
            ["barcode", "--input", fixture_complex, "--line", "1,1:0,0", "--degree", "0"],
            ["rank", "--input", fixture_complex, "--u", "0,0", "--v", "2,2", "--degree", "0"],
            ["verify-external", "--input", fixture_complex, "--construction", "perturb",
             "--epsilon", "0.1", "--seed", "9", "--grid", "3x3", "--degree", "0"],
        ]
        for argv in invocations:
            run(argv)
            first = capsys.readouterr().out
            run(argv)
            assert capsys.readouterr().out == first
