"""The line rules every text format shares, checked on each of the five loaders,
and the one writer of the text formats.

A missing file is a DataFormatError naming the path. ``#`` starts a
comment, lines without words are skipped, and an error names the true
line number of the bad line, counted from 1. A written file appears whole.
"""
import re

import pytest

from taxelsnn import DataFormatError, load_event_file, load_layout, load_manifest
from taxelsnn.cli import load_run_config
from taxelsnn.errors import read_lines, write_lines
from taxelsnn.layout import load_edge_list

# each loader with a line that it rejects
LOADERS = [
    (load_layout, "0 1.0"),
    (load_edge_list, "0 1 2"),
    (load_manifest, "s.events 0 1"),
    (load_event_file, "0.1 0 0 0"),
    (load_run_config, "epochs 5"),
]
IDS = [load.__name__ for load, _ in LOADERS]


@pytest.mark.parametrize("load, bad", LOADERS, ids=IDS)
def test_missing_file_names_the_path(tmp_path, load, bad):
    path = tmp_path / "missing.txt"
    with pytest.raises(DataFormatError, match=f"^file not found: {re.escape(str(path))}$"):
        load(path)


@pytest.mark.parametrize("load, bad", LOADERS, ids=IDS)
def test_bad_line_after_comments_and_blank_lines_names_its_line(tmp_path, load, bad):
    path = tmp_path / "bad.txt"
    path.write_text(f"# a comment\n\n   \n  # another # comment\n{bad}  # why\n")
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:5: "):
        load(path)


def test_write_lines_round_trips_through_read_lines(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, ["# header", "a b", ""])
    assert path.read_bytes() == b"# header\na b\n\n"
    assert read_lines(path) == ["# header", "a b", ""]


def test_a_write_that_raises_part_way_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, ["old"])

    def lines():
        yield "new"
        raise RuntimeError("cut short")

    with pytest.raises(RuntimeError, match="cut short"):
        write_lines(path, lines())
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_a_write_into_a_missing_directory_names_the_file_asked_for(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as raised:
        write_lines(path, ["a"])
    assert raised.value.filename == str(path)
