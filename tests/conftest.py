import faulthandler
import os
import sys

import pytest
from hypothesis import settings

from wcalc import gevrey, ptt

# a falsifying example prints the blob that replays it with
# @reproduce_failure
settings.register_profile("wcalc", print_blob=True)
settings.load_profile("wcalc")

# a test still running after this many seconds dumps every thread's stack
# and ends the run; the slowest test takes a few seconds
TEST_TIMEOUT_S = 120
# a copy of the terminal's stderr: output capture redirects fd 2 while a
# test runs, and a dump written there would end with the process
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _end_a_hung_test(request):
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def g1():
    return gevrey(1.0)


@pytest.fixture(scope="session")
def g2():
    return gevrey(2.0)


@pytest.fixture(scope="session")
def p12():
    return ptt(1.0, 2.0)
