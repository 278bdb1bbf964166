import pytest

from ahodge import hermitian
from ahodge.builtins import get_builtin
from util import clear_memos


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with nothing kept across loads and reports, so a
    spy sees each text parsed, each structure certified and each operator
    of the flag built."""
    clear_memos()


@pytest.fixture(scope="session")
def fls():
    return get_builtin("fls")


@pytest.fixture(scope="session")
def fls_4pi():
    return get_builtin("fls", {"c": "4*pi"})


@pytest.fixture(scope="session")
def fls_nonak():
    return get_builtin("fls_nonak")


@pytest.fixture(scope="session")
def iwasawa_ak():
    return get_builtin("iwasawa_ak")


@pytest.fixture(scope="session")
def iwasawa_std():
    return get_builtin("iwasawa_std")


@pytest.fixture(scope="session")
def iwasawa_complex():
    return get_builtin("iwasawa_complex")


@pytest.fixture(scope="session")
def fls_metric(fls):
    return hermitian.metric_for(fls)


@pytest.fixture(scope="session")
def fls_4pi_metric(fls_4pi):
    return hermitian.metric_for(fls_4pi)


@pytest.fixture(scope="session")
def fls_nonak_metric(fls_nonak):
    return hermitian.metric_for(fls_nonak)


@pytest.fixture(scope="session")
def iwasawa_ak_metric(iwasawa_ak):
    return hermitian.metric_for(iwasawa_ak)
