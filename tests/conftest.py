import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from boxweights import GridMeasure, WeightGrid
from boxweights.grids import uniform_measure

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


def load_repo_module(relpath):
    """Import a file of the repository outside the package, such as a script, as a module."""
    path = REPO_ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(path.stem, module)
    spec.loader.exec_module(module)
    return module


def load_fixture_script():
    """Import scripts/make_bellman_fixture.py as a module."""
    return load_repo_module("scripts/make_bellman_fixture.py")


@pytest.fixture(scope="session")
def fixture_script():
    return load_fixture_script()


@pytest.fixture
def two_cell():
    """Two equal cells on [0, 1] with weight (1, 4)."""
    return uniform_measure(2), WeightGrid(np.array([1.0, 4.0]))


@pytest.fixture
def uniform4():
    return uniform_measure(4), WeightGrid(np.array([1.0, 2.0, 3.0, 4.0]))


@pytest.fixture
def table_builds(monkeypatch):
    """The measure of every PrefixTables built while the test runs, in order."""
    from boxweights.grids import PrefixTables

    built = []
    init = PrefixTables.__init__

    def counting(self, measure, weight, exponents=()):
        built.append(measure)
        init(self, measure, weight, exponents)

    monkeypatch.setattr(PrefixTables, "__init__", counting)
    return built


def random_pair(rng, max_cells=16, ndim_choices=(1, 2), zero_mass_fraction=0.0):
    """Random measure/weight pair on a random irregular lattice."""
    ndim = int(rng.choice(ndim_choices))
    shape = tuple(int(rng.integers(2, max_cells + 1)) for _ in range(ndim))
    bps = []
    for m in shape:
        raw = np.sort(rng.uniform(0.0, 1.0, m + 1))
        bps.append(raw + np.arange(m + 1) * 1e-6)
    mass = rng.uniform(0.05, 1.0, shape)
    if zero_mass_fraction > 0:
        mask = rng.random(shape) < zero_mass_fraction
        mass = np.where(mask, 0.0, mass)
        if mass.sum() == 0:
            mass.flat[0] = 0.5
    values = rng.uniform(0.1, 4.0, shape)
    return GridMeasure(tuple(bps), mass), WeightGrid(values)


@pytest.fixture(scope="session")
def majorant_r12(fixture_script):
    """Fine in-memory concave majorant, r=1.2, Q=2 (Muckenhoupt, p=2)."""
    cand, info = fixture_script.build_majorant_candidate(
        1.2, 2.0, x1_range=(0.5, 2.0), n1=701, n2=901
    )
    return cand, info


@pytest.fixture(scope="session")
def majorant_r15(fixture_script):
    """Fine in-memory concave majorant, r=1.5, Q=1.5; covers split-tree points."""
    cand, info = fixture_script.build_majorant_candidate(
        1.5, 1.5, x1_range=(0.02, 1.2), n1=701, n2=901
    )
    return cand, info
