"""The names other code imports from persline, checked before a benchmark run needs them.

The benchmark (``perfbench/``) and the test suite import persline by name;
a deletion that breaks one of those imports fails here, in the suite,
rather than in a benchmark run. The sources are only parsed, never imported.
"""
import ast
import contextlib
import importlib
from pathlib import Path

import pytest

import persline

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

PUBLIC = [
    "Barcode", "EtaBound", "Grade", "InadmissibleLineError", "InterleavedPair", "Interval",
    "Line", "LineGrid", "MatchResult", "MultiFilteredComplex", "ParseError", "RankQuery",
    "ScalarFiltration", "Simplex", "StabilityReport", "ValidationError", "barcode_from_json",
    "barcode_to_json", "bottleneck_distance", "canonicalize_line", "compute_barcode",
    "default_offset_box", "diagonal_shift", "eta_bound", "line_barcodes", "line_distances",
    "match_result_to_csv", "match_result_to_json", "matching_distance_lb", "parse_bifiltration",
    "perturb_grades", "rank_invariant", "report_to_json", "restrict", "sample_lines",
    "serialize_bifiltration", "shift_pair", "verify_internal_stability", "verify_rank_stability",
]


def _persline_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) per name imported from persline; name None for ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "persline" or node.module.startswith("persline.")):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name == "persline" or alias.name.startswith("persline.")]
    return found


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"reference.py", "gen.py", "workloads.py", "oracles.py", "generators.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_name_imported_from_persline_resolves(path):
    for module_name, name in _persline_imports(path):
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            # ``from package import submodule`` imports the submodule, whether or not an
            # earlier test has: so must this check, or its verdict hangs on test order
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(f"{module_name}.{name}")
        assert name is None or hasattr(module, name), f"{path.name}: {module_name}.{name}"


def test_oracles_import_nothing_from_persline():
    assert _persline_imports(ROOT / "tests" / "oracles.py") == []


def test_public_names_are_pinned():
    assert sorted(persline.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 39
    assert all(hasattr(persline, name) for name in PUBLIC)
