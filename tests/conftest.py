import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

import taxelsnn
from taxelsnn import TaxelLayout, load_layout, radial_layout, training

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
    """Fail a test that leaves a multiprocessing child alive or a worker BLAS variable changed.

    Every iter_rounds pool starts children, and an iterator left open holds the variables.
    """
    blas = {name: os.environ.get(name) for name in training.WORKER_BLAS_ENV}
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
    changed = {name: os.environ.get(name) for name, value in blas.items()
               if os.environ.get(name) != value}
    for name, value in blas.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    assert (left, changed) == ([], {}), (f"child processes left alive: {left}; "
                                         f"worker BLAS variables left changed: {changed}")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
