import pytest

from wcalc import gevrey, ptt


@pytest.fixture(scope="session")
def g1():
    return gevrey(1.0)


@pytest.fixture(scope="session")
def g2():
    return gevrey(2.0)


@pytest.fixture(scope="session")
def p12():
    return ptt(1.0, 2.0)
