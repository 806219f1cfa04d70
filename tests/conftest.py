import pytest

from ymesh.zoo import ZOO, zoo_pin


@pytest.fixture(params=sorted(ZOO))
def zoo_name(request):
    return request.param


@pytest.fixture
def pin(zoo_name):
    return zoo_pin(zoo_name)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running sweeps")
