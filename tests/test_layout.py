import importlib.util
import sys

import numpy as np
import pytest

from taxelsnn import (DataFormatError, TaxelLayout, build_knn, build_manual, build_mst,
                      load_layout, radial_layout)
from taxelsnn.layout import load_edge_list, save_edge_list, save_layout
from tests.conftest import DATA_DIR


def test_radial_default_is_39_taxels():
    lay = radial_layout()
    assert lay.num_taxels == 39
    assert lay.names is not None and len(lay.names) == 39


def test_positions_are_immutable():
    lay = radial_layout()
    with pytest.raises(ValueError):
        lay.positions[0, 0] = 99.0


def test_rejects_empty_and_bad_shapes():
    with pytest.raises(ValueError):
        TaxelLayout(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        TaxelLayout(np.zeros((3, 3)))


def test_rejects_nonfinite_and_duplicate_positions():
    with pytest.raises(ValueError, match="finite"):
        TaxelLayout(np.array([[0.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="identical"):
        TaxelLayout(np.array([[1.0, 2.0], [1.0, 2.0]]))


@pytest.mark.parametrize("names", [("a",), ("a", "b", "c")])
def test_rejects_names_of_another_length(names):
    with pytest.raises(ValueError, match="names length"):
        TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0]]), names)


def test_radial_rejects_rings_of_unequal_length():
    with pytest.raises(ValueError, match="equal length"):
        radial_layout(ring_counts=(8, 12), ring_radii=(2.0,))


def test_distances_match_hand_computation():
    lay = TaxelLayout(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert lay.distances()[0, 1] == pytest.approx(5.0)


def test_layout_file_round_trip(tmp_path):
    # a saved layout loads back as the same layout, so it builds the same graphs
    lay = radial_layout()
    path = tmp_path / "lay.txt"
    save_layout(lay, path)
    back = load_layout(path)
    np.testing.assert_array_equal(back.positions, lay.positions)
    assert back.names == lay.names
    for k in (1, 2, 3):
        assert build_knn(back, k) == build_knn(lay, k)
    assert build_mst(back, 0.0) == build_mst(lay, 0.0)


def test_layout_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0.0 0.0\n1 oops 2.0\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:2"):
        load_layout(path)

    path.write_text("0 0.0 0.0\n0 1.0 1.0\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        load_layout(path)

    path.write_text("0 0.0 0.0\n2 1.0 1.0\n")
    with pytest.raises(DataFormatError, match="dense"):
        load_layout(path)


@pytest.mark.parametrize("name", ["a b", "", "t#1", "tab\there", "new\nline"])
def test_layout_rejects_name_a_layout_file_cannot_hold(name):
    with pytest.raises(ValueError, match="taxel name"):
        TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0]]), (name, "c"))


def test_layout_names_round_trip_through_a_file(tmp_path):
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0]]), ("a-b", "c_1"))
    save_layout(lay, tmp_path / "lay.txt")
    assert load_layout(tmp_path / "lay.txt").names == lay.names


def test_layout_missing_file():
    with pytest.raises(DataFormatError, match="not found"):
        load_layout("no/such/file.txt")


def test_layout_comments_and_names(tmp_path):
    path = tmp_path / "lay.txt"
    path.write_text("# a comment\n1 1.0 0.0 right\n0 0.0 0.0 origin  # inline\n")
    lay = load_layout(path)
    assert lay.num_taxels == 2
    assert lay.names == ("origin", "right")
    np.testing.assert_allclose(lay.positions, [[0, 0], [1, 0]])


def test_edge_list_round_trip(tmp_path):
    path = tmp_path / "edges.txt"
    save_edge_list([(0, 1), (2, 3)], path)
    assert load_edge_list(path) == [(0, 1), (2, 3)]


def test_edge_list_parse_error(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2 3\n")
    with pytest.raises(DataFormatError, match=r"edges\.txt:2"):
        load_edge_list(path)


def test_bundled_data_is_what_its_script_generates(layout39, monkeypatch):
    # criteria 1 and 2 and the pinned graph hashes rest on these two files
    path = DATA_DIR.parent / "scripts" / "make_example_data.py"
    spec = importlib.util.spec_from_file_location("make_example_data", path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script puts src/ first on it
    spec.loader.exec_module(script)   # defines, writes nothing: main() is not called
    generated = script.radial_layout()
    rounded = [[float(f"{v:.6f}") for v in row] for row in generated.positions]
    np.testing.assert_array_equal(rounded, layout39.positions)
    assert generated.names == layout39.names
    committed = build_manual(layout39, load_edge_list(DATA_DIR / "manual_edges39.txt"))
    assert build_manual(layout39, script.manual_edges(generated)) == committed
    assert committed.num_edges == 66
