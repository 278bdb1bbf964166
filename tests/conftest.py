import pytest

from ahodge import hermitian
from ahodge.builtins import get_builtin


@pytest.fixture(autouse=True)
def cold_flag_memo():
    """Every test starts with no skeleton of the Laplacian flag kept, so a
    spy on the operators sees them built."""
    hermitian._skeleton.cache_clear()


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
