"""The line rules every text format shares, checked on each of the five loaders.

A missing file is a DataFormatError naming the path. ``#`` starts a
comment, lines without words are skipped, and an error names the true
line number of the bad line, counted from 1.
"""
import re

import pytest

from taxelsnn import DataFormatError, load_event_file, load_layout, load_manifest
from taxelsnn.cli import load_run_config
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
