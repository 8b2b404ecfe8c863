import pytest
from hypothesis import settings

from wcalc import gevrey, ptt

# a falsifying example prints the blob that replays it with
# @reproduce_failure
settings.register_profile("wcalc", print_blob=True)
settings.load_profile("wcalc")


@pytest.fixture(scope="session")
def g1():
    return gevrey(1.0)


@pytest.fixture(scope="session")
def g2():
    return gevrey(2.0)


@pytest.fixture(scope="session")
def p12():
    return ptt(1.0, 2.0)
