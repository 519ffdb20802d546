import hashlib
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import persline.bottleneck
import persline.cli
import persline.homology
from persline import (
    Interval, Line, barcode_to_json, bottleneck_distance, line_distances, parse_bifiltration,
    serialize_bifiltration,
)
from persline.cli import run
from persline.complexes import push_values
from generators import random_bifiltered_complex
from oracles import strict_json

TWO_VERTEX_EDGE = "bifiltration 2\n0 0 ; 0 0\n0 1 ; 0 0\n1 0 1 ; 1 1\n"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def assert_one_error_line(captured):
    assert captured.out == ""
    assert captured.err.startswith("persline: error: ")
    assert captured.err.count("\n") == 1


def run_unwarned(argv):
    """run(argv), asserting that it raises no warning, numpy's floating-point ones included.
    Such a warning would reach stderr, which tests capture apart from warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    assert not caught, [str(w.message) for w in caught]
    return code


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

    def test_essential_birth_gap_overflow_is_usage_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('[{"degree": 0, "birth": -1e308, "death": null}]')
        b.write_text('[{"degree": 0, "birth": 1e308, "death": null}]')
        assert run(["bottleneck", "--input", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "essential births" in captured.err

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

    def test_negative_zero_death_prints_positive_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('[{"degree": 0, "birth": 0.0, "death": -0.0}]')
        b.write_text("[]")
        assert run(["bottleneck", "--input", str(a), str(b)]) == 0
        assert capsys.readouterr().out == '{"distance": 0.0}\n'

    def test_intervals_match_only_within_a_degree(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('[{"degree": 0, "birth": 0.0, "death": 4.0}]')
        b.write_text('[{"degree": 1, "birth": 0.0, "death": 4.0}]')
        assert run(["bottleneck", "--input", str(a), str(b)]) == 0
        assert capsys.readouterr().out == '{"distance": 2.0}\n'

    def test_builds_no_interval(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("an Interval was built")

        monkeypatch.setattr(persline.homology, "Interval", refuse)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('[{"degree": 0, "birth": 0.0, "death": 1.0},'
                     ' {"degree": 0, "birth": 0.5, "death": null}]')
        b.write_text('[{"degree": 0, "birth": 0.25, "death": null}]')
        assert run(["bottleneck", "--input", str(a), str(b)]) == 0
        assert capsys.readouterr().out == '{"distance": 0.5}\n'

    @pytest.mark.parametrize("text", [
        "{}",
        '{"degree": 0, "birth": 0.0, "death": 1.0}',
        "5",
        '[{"degree": "x", "birth": 0.0, "death": 1.0}]',
        '[{"degree": -1, "birth": 0.0, "death": 1.0}]',
        '[{"degree": 1.0, "birth": 0.0, "death": 1.0}]',
        '[{"degree": true, "birth": 0.0, "death": 1.0}]',
        '[{"degree": 0, "birth": true, "death": 1.0}]',
        '[{"degree": 0, "birth": 0, "death": false}]',
        # endpoints too large for a float, and a finite interval whose length overflows
        pytest.param('[{"degree": 0, "birth": 0, "death": 1' + "0" * 400 + "}]", id="int-death-overflow"),
        pytest.param('[{"degree": 0, "birth": 1' + "0" * 400 + ', "death": null}]', id="int-birth-overflow"),
        pytest.param('[{"degree": 0, "birth": -1e308, "death": 1e308}]', id="length-overflow"),
    ])
    def test_mistyped_barcode_json_is_usage_error(self, tmp_path, capsys, text):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(text)
        b.write_text("[]")
        assert run(["bottleneck", "--input", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "a.json" in captured.err

    @pytest.mark.parametrize("text, message", [
        ("[[1, 2, 0]]", "bad interval [1, 2, 0]: expected an object with keys birth, death and degree"),
        ('[{"degree": 0, "birth": 1.0}]',
         "bad interval {'degree': 0, 'birth': 1.0}: expected an object with keys birth, death and degree"),
        ('[{"degree": 0, "birth": "1", "death": 2.0}]',
         "bad interval Interval(birth='1', death=2.0, degree=0): degree must be an int >= 0; "
         "birth and death numbers, not booleans"),
        pytest.param("[" * 100_000, "JSON nested too deeply", id="nested-past-the-recursion-limit"),
    ])
    def test_malformed_item_is_named(self, tmp_path, capsys, text, message):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(text)
        b.write_text("[]")
        assert run(["bottleneck", "--input", str(a), str(b)]) == 2
        assert capsys.readouterr().err == f"persline: error: {a}: {message}\n"


_quarter = st.integers(0, 8).map(lambda k: k / 4)
_graded_barcodes = st.lists(
    st.builds(lambda birth, length, essential, degree:
              Interval(birth, math.inf if essential else birth + length, degree),
              _quarter, _quarter, st.integers(0, 3).map(lambda k: k == 0), st.integers(0, 2)),
    max_size=6,
).map(tuple)


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_graded_barcodes, _graded_barcodes)
def test_bottleneck_command_agrees_with_the_library(tmp_path, A, B):
    """The CLI reads barcode JSON into rows, the library gets Intervals: same bytes,
    and the largest of the distances of the degrees taken apart."""
    fresh = Path(tempfile.mkdtemp(dir=tmp_path))  # new files: truncating old ones is slow on some disks
    a, b, out = fresh / "a.json", fresh / "b.json", fresh / "out.json"
    a.write_text(barcode_to_json(A))
    b.write_text(barcode_to_json(B))
    assert run(["bottleneck", "--input", str(a), str(b), "--output", str(out)]) == 0
    d = bottleneck_distance(A, B)
    assert out.read_text() == strict_json({"distance": d}) + "\n"
    per_degree = [bottleneck_distance([iv for iv in A if iv.degree == g],
                                      [iv for iv in B if iv.degree == g])
                  for g in {iv.degree for iv in A + B}]
    assert d == max(per_degree, default=0.0)


class TestRank:
    def test_fixture_rank(self, fixture_complex, capsys):
        code = run(["rank", "--input", fixture_complex, "--u", "0,0", "--v", "2,2", "--degree", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == 1

    def test_incomparable_corners_usage_error(self, fixture_complex, capsys):
        for u, v, message in [("1,0", "0,1", "requires u <= v"), ("2,2", "0,0", "requires u <= v"),
                              ("a,b", "1,1", "bad vector 'a,b'")]:
            code = run(["rank", "--input", fixture_complex, "--u", u, "--v", v, "--degree", "0"])
            assert code == 2
            captured = capsys.readouterr()
            assert_one_error_line(captured)
            assert message in captured.err

    @pytest.mark.parametrize("u, v", [("0", "2,2"), ("0,0,0", "2,2,2"), ("0,0", "2")])
    def test_grade_of_wrong_length_usage_error(self, fixture_complex, capsys, u, v):
        code = run(["rank", "--input", fixture_complex, "--u", u, "--v", v, "--degree", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("persline: error: grade ")
        assert "expected 2" in captured.err

    @pytest.mark.parametrize("u, v", [("-1,0", "0,0"), ("-0.5,2", "1,3"), ("-inf,-1", "-1,1"),
                                      ("-1,-1", "-0.5,-1"), ("0,0", "-0.5,2")])
    def test_negative_first_coordinate_reads_as_with_equals(self, tmp_path, capsys, u, v):
        path = tmp_path / "M.bif"
        path.write_text("bifiltration 2\n0 0 ; -1 -1\n0 1 ; -1 0\n1 0 1 ; -0.5 0\n")
        runs = []
        for flags in (["--u", u, "--v", v], [f"--u={u}", f"--v={v}"]):
            code = run(["rank", "--input", str(path), *flags, "--degree", "0"])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (2 if v == "-0.5,2" else 0)

    @pytest.mark.parametrize("u, v, named", [("nan,0", "1,1", "u"), ("0,0", "1,nan", "v"),
                                             ("-nan,0", "nan,1", "u")])
    def test_nan_grade_is_named(self, fixture_complex, capsys, u, v, named):
        code = run(["rank", "--input", fixture_complex, "--u", u, "--v", v, "--degree", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.startswith(f"persline: error: grade {named} ")
        assert "NaN" in captured.err

    def test_infinite_grade_is_the_whole_complex(self, fixture_complex, capsys):
        code = run(["rank", "--input", fixture_complex, "--u", "0,0", "--v", "inf,inf", "--degree", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == 1


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

    def test_grid_defaults_to_16x8(self, fixture_complex, tmp_path, capsys):
        other = tmp_path / "N.bif"
        other.write_text("bifiltration 2\n0 0 ; 1 1\n")
        assert run(["matchdist", "--input", fixture_complex, str(other), "--degree", "0"]) == 0
        default = capsys.readouterr().out
        run(["matchdist", "--input", fixture_complex, str(other), "--grid", "16x8", "--degree", "0"])
        assert default == capsys.readouterr().out

    def test_complexes_of_different_dimension(self, fixture_complex, tmp_path, capsys):
        other = tmp_path / "N3.bif"
        other.write_text("bifiltration 3\n0 0 ; 1 1 1\n")
        assert run(["matchdist", "--input", fixture_complex, str(other), "--degree", "0"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "complexes of dimension 2 and 3" in captured.err and "line" in captured.err


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

    def test_negative_seed_is_usage_error(self, fixture_complex, capsys):
        code = run(["verify-external", "--input", fixture_complex, "--construction", "perturb",
                    "--epsilon", "0.1", "--seed", "-1", "--grid", "2x2"])
        assert code == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err == "persline: error: --seed must be an integer >= 0, got -1\n"

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

    def test_push_overflow_above_the_dimension(self, tmp_path, capsys):
        # a degree above the dimension takes the same reduction, and the same push check
        m = tmp_path / "M.bif"
        m.write_text("bifiltration 2\n0 0 ; 1e308 0\n")
        assert run(["barcode", "--input", str(m), "--line", "1,1:-1e308,1e308",
                    "--degree", "3"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "simplex (0,)" in captured.err and "overflows" in captured.err

    def test_push_overflow_of_a_dropped_relation(self, tmp_path, capsys):
        # (0, 1, 2) is the sum of the other three triangles, graded below it, so degree 1
        # reduces without it; its push is checked all the same
        text = "bifiltration 2\n" + "".join(f"0 {v} ; 0 0\n" for v in range(4)) + "".join(
            f"1 {a} {b} ; 0 0\n" for a in range(4) for b in range(a + 1, 4)) + (
            "2 0 1 3 ; 0 0\n2 0 2 3 ; 0 0\n2 1 2 3 ; 0 0\n2 0 1 2 ; 1e308 1e308\n")
        M = parse_bifiltration(text)
        assert (0, 1, 2) not in [M.table[i] for i in M._relations(1)[0]]
        m = tmp_path / "M.bif"
        m.write_text(text)
        assert run_unwarned(["barcode", "--input", str(m), "--line=1,1:-1e308,1e308",
                             "--degree", "1"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "simplex (0, 1, 2)" in captured.err and "overflows" in captured.err

    def test_flagged_line_without_an_overflowing_push_answers(self, tmp_path, capsys):
        # the push of the componentwise min grade (-1e308, -1e308) is -inf, so the line is looked
        # at for overflow, but neither vertex's own push overflows
        text = "bifiltration 2\n0 0 ; -1e308 -9e307\n0 1 ; 0 -1e308\n"
        L = Line((1.0, 1e-300), (9e307, -9e307))
        corner = push_values(np.array([[-1e308, -1e308]]), np.array([L.direction]), np.array([L.offset]))
        assert corner[0, 0] == -math.inf
        m = tmp_path / "M.bif"
        m.write_text(text)
        assert run_unwarned(["barcode", "--input", str(m), "--line=1,1e-300:9e307,-9e307",
                             "--degree", "0"]) == 0
        assert capsys.readouterr().out == ('[{"degree": 0, "birth": -9e+307, "death": null}, '
                                           '{"degree": 0, "birth": 0.0, "death": null}]\n')

    @pytest.mark.parametrize("grade", ["0 1", "0 0"])
    def test_direction_underflow_is_inadmissible(self, tmp_path, capsys, grade):
        # 1e-308 / 1e308 rounds to 0: no canonical direction with every component > 0
        m = tmp_path / "M.bif"
        m.write_text(f"bifiltration 2\n0 0 ; {grade}\n")
        assert run_unwarned(["barcode", "--input", str(m), "--line", "1e308,1e-308:0,0",
                             "--degree", "0"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "no finite canonical form" in captured.err

    def test_eta_weight_product_underflow(self, tmp_path, capsys):
        # m_star * m'_star = 1e-300 * 1e-300 rounds to 0; eta divides by each in turn
        m = tmp_path / "M.bif"
        m.write_text("bifiltration 2\n0 0 ; 0 0\n")
        assert run(["verify-internal", "--input", str(m), "--line", "1,1e-300:0,0",
                    "--line2", "1e-300,1:0,0"]) == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["eta"] == 0.0 and payload["globalPass"] is True

    def test_eta_of_equal_lines_with_overflowing_a(self, tmp_path, capsys):
        # A overflows to inf, so K is inf; the directions are equal, and inf * 0 would be NaN
        m = tmp_path / "M.bif"
        m.write_text("bifiltration 2\n0 0 ; 0 1\n")
        line = "1e-160,1e-300:1e-300,1e308"
        assert run(["verify-internal", "--input", str(m), f"--line={line}", f"--line2={line}"]) == 0
        payload = strict_loads(capsys.readouterr().out)
        assert math.isfinite(payload["eta"]) and payload["globalPass"] is True

    def test_sampled_line_without_canonical_form_names_grades_and_box(self, tmp_path, capsys):
        # the padded box is finite, but the offset sum of its corner overflows
        m = tmp_path / "M.bif"
        m.write_text("bifiltration 2\n0 0 ; 0 1\n")
        assert run(["verify-external", "--input", str(m), "--construction", "shift",
                    "--epsilon", "1e308", "--grid", "2x2"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "grades in the boxes ((0.0, 1.0), (0.0, 1.0)) and " in captured.err
        assert "padded to the offset box from (-1.1e+308, -1.1e+308) to " in captured.err
        assert "direction" not in captured.err  # no line the user never gave

    def test_matchdist_offset_box_overflow(self, tmp_path, capsys):
        m, n = tmp_path / "M.bif", tmp_path / "N.bif"
        m.write_text("bifiltration 2\n0 0 ; -1e308 -1e308\n")
        n.write_text("bifiltration 2\n0 0 ; 1e308 1e308\n")
        assert run(["matchdist", "--input", str(m), str(n), "--grid", "2x2", "--degree", "0"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "offset box" in captured.err and "nan" not in captured.err


class TestExitCodes:
    @pytest.mark.parametrize("command, slot", [
        ("barcode", 0), ("rank", 0), ("bottleneck", 0), ("bottleneck", 1), ("matchdist", 0),
        ("matchdist", 1), ("verify-external", 0), ("verify-internal", 0),
    ])
    @pytest.mark.parametrize("content", ["missing", "undecodable", "malformed"])
    def test_every_input_names_its_file(self, tmp_path, capsys, command, slot, content):
        barcodes = command == "bottleneck"
        good = tmp_path / "good"
        good.write_text("[]" if barcodes else TWO_VERTEX_EDGE)
        bad = tmp_path / "bad"
        if content == "undecodable":
            bad.write_bytes(b"\xff")
        elif content == "malformed":
            bad.write_text("{}" if barcodes else "bifiltration 2\ngarbage\n")
        reason = {
            "missing": "No such file or directory",
            "undecodable": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            "malformed": "expected a JSON array of intervals" if barcodes
            else "line 2: expected '<k> <vertex ids> ; <grade>'",
        }[content]
        inputs = [str(good), str(good)] if command in ("bottleneck", "matchdist") else [str(good)]
        inputs[slot] = str(bad)
        rest = {
            "barcode": ["--line", "1,1:0,0", "--degree", "0"],
            "rank": ["--u", "0,0", "--v", "1,1", "--degree", "0"],
            "bottleneck": [],
            "matchdist": ["--degree", "0"],
            "verify-external": ["--construction", "shift", "--epsilon", "0.1"],
            "verify-internal": ["--line", "1,1:0,0", "--line2", "1,0.5:0,0"],
        }[command]
        assert run([command, "--input", *inputs, *rest]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"persline: error: {bad}: {reason}\n"

    @pytest.mark.parametrize("text", [
        pytest.param("bifiltration 0\n", id="ambient-dimension-0"),
        pytest.param("bifiltration 2\n0 0 ; 0 0 0\n", id="grade-arity"),
        pytest.param("bifiltration 2\n1 0 0 ; 0 0\n", id="repeated-vertex-id"),
        pytest.param("bifiltration 2\n-1 ; 0 0\n", id="empty-simplex"),
    ])
    def test_structure_error_names_file(self, tmp_path, capsys, text):
        # the parser checks the format; these reach the complex's constructor
        bad = tmp_path / "bad.bif"
        bad.write_text(text)
        assert run(["barcode", "--input", str(bad), "--line", "1,1:0,0", "--degree", "0"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "bad.bif: " in captured.err and "line " not in captured.err

    def test_simplex_dimension_below_minus_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.bif"
        bad.write_text("bifiltration 2\n-2 ; 0 0\n")
        assert run(["barcode", "--input", str(bad), "--line", "1,1:0,0", "--degree", "0"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert captured.err.endswith("bad.bif: line 2: bad simplex dimension -2\n")

    def test_inadmissible_line(self, fixture_complex, capsys):
        for line, message in [("1,0:0,0", "non-positive component"), ("0,1:0,0", "non-positive component"),
                              ("1,1", "bad line '1,1'"), ("1,1:0", "direction and offset dimensions differ")]:
            assert run(["barcode", "--input", fixture_complex, "--line", line,
                        "--degree", "0"]) == 2
            captured = capsys.readouterr()
            assert_one_error_line(captured)
            assert message in captured.err

    def test_bad_grid(self, fixture_complex, tmp_path, capsys):
        other = tmp_path / "N.bif"
        other.write_text("bifiltration 2\n0 0 ; 1 1\n")
        for grid, message in [("bogus", "expected '<directions>x<offsets>'"), ("0x3", "must be >= 1"),
                              ("ax2", "expected integers")]:
            assert run(["matchdist", "--input", fixture_complex, str(other),
                        "--grid", grid, "--degree", "0"]) == 2
            captured = capsys.readouterr()
            assert_one_error_line(captured)
            assert message in captured.err

    def test_grid_too_large_for_memory_is_usage_error(self, fixture_complex, tmp_path, capsys):
        # the raw line count is checked against the cap before anything is sampled
        other = tmp_path / "N.bif"
        other.write_text("bifiltration 2\n0 0 ; 1 1\n")
        for argv in (["matchdist", "--input", fixture_complex, str(other)],
                     ["verify-external", "--input", fixture_complex, "--construction", "shift",
                      "--epsilon", "0.1"]):
            for grid, lines in (("1x1000000000", 10**18), ("1000000000x1", 10**9)):
                assert run([*argv, "--grid", grid, "--degree", "0"]) == 2
                captured = capsys.readouterr()
                assert_one_error_line(captured)
                assert f"grid {grid} in 2 parameters: its {lines} lines exceed the cap of 16777216\n" \
                    in captured.err

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

    @pytest.mark.parametrize("command, usage", [
        ([], "[-h] {barcode,bottleneck,rank,matchdist,verify-external,verify-internal} ..."),
        (["barcode"], "barcode [-h] --input INPUT --line LINE --degree DEGREE [--output OUTPUT]"),
        (["bottleneck"], "bottleneck [-h] --input A B [--output OUTPUT]"),
        (["rank"], "rank [-h] --input INPUT --u U --v V --degree DEGREE [--output OUTPUT]"),
        (["matchdist"], "matchdist [-h] --input M N [--grid GRID] --degree DEGREE "
                        "[--format {json,csv}] [--output OUTPUT]"),
        (["verify-external"], "verify-external [-h] --input INPUT --construction {shift,perturb} "
                              "--epsilon EPSILON [--seed SEED] [--grid GRID] [--degree DEGREE] "
                              "[--output OUTPUT]"),
        (["verify-internal"], "verify-internal [-h] --input INPUT --line LINE --line2 LINE2 "
                              "[--degree DEGREE] [--output OUTPUT]"),
    ], ids=["persline", "barcode", "bottleneck", "rank", "matchdist", "verify-external", "verify-internal"])
    def test_usage_line(self, capsys, command, usage):
        # whitespace collapsed, so the terminal width (COLUMNS) that wraps it does not matter
        with pytest.raises(SystemExit) as exc:
            run([*command, "-h"])
        assert exc.value.code == 0
        first_block = capsys.readouterr().out.split("\n\n")[0]
        assert " ".join(first_block.split()) == f"usage: persline {usage}"

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

    @pytest.mark.parametrize("degree", [str(2**63 - 2), str(10**20)])
    @pytest.mark.parametrize("command", ["barcode", "rank", "matchdist", "verify-external", "verify-internal"])
    def test_huge_degree_answers_as_dimension_plus_one(self, fixture_complex, capsys, command, degree):
        # such a degree once overflowed the cone test's int64 arithmetic: exit 3
        argv = {
            "barcode": ["barcode", "--input", fixture_complex, "--line", "1,1:0,0"],
            "rank": ["rank", "--input", fixture_complex, "--u", "0,0", "--v", "2,2"],
            "matchdist": ["matchdist", "--input", fixture_complex, fixture_complex, "--grid", "2x2"],
            "verify-external": ["verify-external", "--input", fixture_complex, "--construction", "shift",
                                "--epsilon", "0.25", "--grid", "2x2"],
            "verify-internal": ["verify-internal", "--input", fixture_complex, "--line", "1,1:0,0",
                                "--line2", "1,0.5:0,0"],
        }[command]
        expected = run(argv + ["--degree", "2"]), capsys.readouterr()
        assert expected[0] == 0 and expected[1].err == ""
        assert (run(argv + ["--degree", degree]), capsys.readouterr()) == expected

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


# (table bound, cover test): every block past the table bound, its lower bound certified
# where it can be; past it with a cover test that covers only rows without roots, so every
# line with a root goes to the per-line search; every block on the table
_PATHS = {"certified": (0, persline.bottleneck._covered),
          "per-line": (0, lambda adjacent, roots: ~roots.any(axis=1)),
          "batched": (10**9, persline.bottleneck._covered)}


def _take_path(monkeypatch, path):
    entries, covered = _PATHS[path]
    monkeypatch.setattr(persline.bottleneck, "_BATCH_ENTRIES", entries)
    monkeypatch.setattr(persline.bottleneck, "_covered", covered)


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_pinned_output_bytes_on_either_distance_path(tmp_path, capsys, monkeypatch, path):
    """Every block matched through the certified bound, line by line, or in one pass:
    the same pinned bytes."""
    _take_path(monkeypatch, path)
    test_pinned_output_bytes(tmp_path, capsys)


def test_seeded_runs_print_the_same_bytes_on_either_distance_path(tmp_path, capsys, monkeypatch):
    rng, line_rng = np.random.default_rng(17), np.random.default_rng(19)
    ops = []
    for k in range(12):
        m_path, n_path = tmp_path / f"M{k}.bif", tmp_path / f"N{k}.bif"
        m_path.write_text(serialize_bifiltration(random_bifiltered_complex(rng, 5, 12)))
        n_path.write_text(serialize_bifiltration(random_bifiltered_complex(rng, 5, 12)))
        M, N, degree = str(m_path), str(n_path), str(k % 2)
        ops += [["matchdist", "--input", M, N, "--grid", "6x4", "--degree", degree],
                ["verify-external", "--input", M, "--construction", "perturb", "--epsilon", "0.2",
                 "--seed", str(k), "--grid", "6x4", "--degree", degree],
                ["verify-external", "--input", N, "--construction", "shift", "--epsilon", "0.5",
                 "--grid", "5x3", "--degree", degree]]
        # raw lines, rescaled and slid by the CLI
        L, Lp = (",".join(map(repr, line_rng.uniform(0.2, 2.0, 2).tolist())) + ":"
                 + ",".join(map(repr, line_rng.uniform(-1.0, 1.0, 2).tolist())) for _ in range(2))
        ops.append(["verify-internal", "--input", M, "--line", L, "--line2", Lp, "--degree", degree])
    printed = {}
    for path in _PATHS:
        _take_path(monkeypatch, path)
        printed[path] = []
        for argv in ops:
            printed[path].append((run(argv), capsys.readouterr().out))
    assert printed["per-line"] == printed["batched"] == printed["certified"]
    assert {code for code, _ in printed["batched"]} == {0}


def test_push_overflow_of_m_is_named_before_n_s(monkeypatch):
    """N overflows on line 0 and M only on line 1, a block of one line each: M's lines
    ran before N's at first, so M's simplex is named, with every block size."""
    M = parse_bifiltration("bifiltration 2\n0 0 ; 0 1e10\n")
    N = parse_bifiltration("bifiltration 2\n0 5 ; 1e10 0\n")
    lines = [Line((1e-300, 1.0), (0.0, 0.0)), Line((1.0, 1e-300), (0.0, 0.0))]
    message = r"simplex \(0,\): push onto Line\(direction=\(1\.0, 1e-300\).* overflows"
    with pytest.raises(ValueError, match=message):
        line_distances(M, N, lines, 0)
    monkeypatch.setattr(persline.homology, "_BLOCK_ENTRIES", 1)  # one line per block
    with pytest.raises(ValueError, match=message):
        line_distances(M, N, lines, 0)
    with pytest.raises(ValueError, match=r"simplex \(5,\): push onto Line\(direction=\(1e-300"):
        line_distances(N, N, lines, 0)


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


# Values at the edges of the float range: zeros, the smallest subnormal, tiny
# weights whose product underflows, and the largest magnitudes.
EDGE = ("0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e-160", "1e308", "-1e308")
EDGE_FILES = {
    "vertex": "bifiltration 2\n0 0 ; 0 1\n",
    "edge": TWO_VERTEX_EDGE,
    "far": "bifiltration 2\n0 0 ; 1e308 -1e308\n0 1 ; -1e308 1e308\n1 0 1 ; 1e308 1e308\n",
    "tiny": "bifiltration 2\n0 0 ; 5e-324 -5e-324\n0 1 ; 1e-300 0\n1 0 1 ; 1e-160 1e-160\n",
    "no-face": "bifiltration 2\n0 0 ; 0 0\n1 0 1 ; 1 1\n",
    "face-above": "bifiltration 2\n0 0 ; 0 0\n0 1 ; 2 0\n1 0 1 ; 1 1\n",
    "empty": "bifiltration 2\n",
    "blank": "",
}
_edge = st.sampled_from(EDGE)
_vector = st.tuples(_edge, _edge).map(",".join)
# a direction with a non-positive component is rejected at once; these are admissible
_direction = st.tuples(*[st.sampled_from(("1", "5e-324", "1e-300", "1e-160", "1e308"))] * 2)
_line = st.tuples(_direction.map(",".join), _vector).map(":".join)
_file = st.sampled_from(sorted(EDGE_FILES)).map("@".__add__)
# -1 is a usage error; from 2**63 - 2 on, degree + 2 leaves int64, and any degree above the
# dimension answers as dimension + 1 does
_degree = st.sampled_from(["0", "1", "3", "-1", str(2**63 - 2), str(2**70)])
_rows = st.lists(st.tuples(_edge, st.one_of(st.none(), _edge)), max_size=3)
# argv with "@name" for the file EDGE_FILES[name], "@A"/"@B" for barcode JSON of the two row lists
_edge_ops = st.one_of(
    st.builds(lambda f, L, d: ["barcode", "--input", f, f"--line={L}", "--degree", d],
              _file, _line, _degree),
    st.builds(lambda f, u, v, d: ["rank", "--input", f, f"--u={u}", f"--v={v}", "--degree", d],
              _file, _vector, _vector, _degree),
    st.builds(lambda f, g, d, csv: ["matchdist", "--input", f, g, "--grid", "2x2", "--degree", d]
              + (["--format", "csv"] if csv else []), _file, _file, _degree, st.booleans()),
    st.builds(lambda f, c, e, d: ["verify-external", "--input", f, "--construction", c,
                                  f"--epsilon={e}", "--seed", "1", "--grid", "2x2", "--degree", d],
              _file, st.sampled_from(["shift", "perturb"]), _edge, _degree),
    st.builds(lambda f, L, Lp, d: ["verify-internal", "--input", f, f"--line={L}",
                                   f"--line2={Lp}", "--degree", d], _file, _line, _line, _degree),
).map(lambda argv: (argv, [], [])) | st.tuples(
    st.just(["bottleneck", "--input", "@A", "@B"]), _rows, _rows)


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_edge_ops)
@example((["barcode", "--input", "@vertex", "--line=1e308,1e-300:0,0", "--degree", "0"], [], []))
@example((["verify-internal", "--input", "@vertex", "--line=1e-160,5e-324:0,0",
           "--line2=5e-324,1e-160:0,0", "--degree", "0"], [], []))
def test_edge_values_are_answers_or_usage_errors(tmp_path, op):
    """Every command on edge values exits 0, 1 (verify-* only) or 2, never 3, with no warning;
    it prints strict JSON when it succeeds and one error line on exit 2."""
    argv, rows_a, rows_b = op
    fresh = Path(tempfile.mkdtemp(dir=tmp_path))  # new files: truncating old ones is slow on some disks
    for name, text in EDGE_FILES.items():
        (fresh / name).write_text(text)
    for name, rows in (("A", rows_a), ("B", rows_b)):
        (fresh / name).write_text(json.dumps(
            [{"degree": 0, "birth": float(b), "death": None if d is None else float(d)}
             for b, d in rows]))
    argv = [str(fresh / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_unwarned(argv)
    assert code in (0, 1, 2) and (code != 1 or argv[0].startswith("verify-")), err.getvalue()
    assert "Warning" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("persline: error:") and err.getvalue().count("\n") == 1, err.getvalue()
    elif "csv" not in argv:
        strict_loads(out.getvalue())
