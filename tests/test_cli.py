import json

import pytest

import persline.cli
from persline.cli import run

TWO_VERTEX_EDGE = "bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 1\n"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


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


class TestRank:
    def test_fixture_rank(self, fixture_complex, capsys):
        code = run(["rank", "--input", fixture_complex, "--u", "0,0", "--v", "2,2", "--degree", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == 1

    def test_incomparable_corners_usage_error(self, fixture_complex, capsys):
        code = run(["rank", "--input", fixture_complex, "--u", "1,0", "--v", "0,1", "--degree", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err


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
        assert run(["barcode", "--input", fixture_complex, "--line", "1,0:0,0",
                    "--degree", "0"]) == 2
        capsys.readouterr()

    def test_bad_grid(self, fixture_complex, tmp_path, capsys):
        other = tmp_path / "N.bif"
        other.write_text("bifiltration 2\n0 0 ; 1 1\n")
        assert run(["matchdist", "--input", fixture_complex, str(other),
                    "--grid", "bogus", "--degree", "0"]) == 2
        capsys.readouterr()

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
