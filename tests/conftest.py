import pytest

from corrupted_backend import CORRUPTIONS, corrupted
from grass.oracles import coherence_by_elements
from grass.presets import system


@pytest.fixture(scope="session")
def lu():
    return system("LU")


@pytest.fixture(scope="session")
def lu_space(lu):
    return lu[0]


@pytest.fixture(scope="session")
def lu_backend(lu):
    return lu[1]


@pytest.fixture(scope="session")
def fh():
    return system("fh")


@pytest.fixture(scope="session")
def element_reports():
    """The element-level validator's reports on `all` at max size 3, budget
    4, under each element-level corruption: the golden file pins them and
    the mutation checks read them."""
    backend = system("all")[1]
    return {which: coherence_by_elements(corrupted(backend, which), max_size=3, budget=4)
            for which in CORRUPTIONS}
