import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

import taxelsnn
from taxelsnn import TaxelLayout, load_layout, radial_layout

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def package_env() -> dict:
    """This process's environment, with the package under test first on the import path."""
    paths = [str(Path(taxelsnn.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture(scope="session")
def layout39() -> TaxelLayout:
    return load_layout(DATA_DIR / "taxels39.txt")


@pytest.fixture(scope="session")
def layout10() -> TaxelLayout:
    # two rings of 4 + 6, no center: 10 taxels
    return radial_layout((4, 6), (2.0, 4.0), include_center=False)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a multiprocessing child alive; every run_rounds call starts some."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
    assert left == [], f"child processes left alive: {left}"


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
