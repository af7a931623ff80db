"""Shared fixtures for the test suite."""

import pytest

from hsdpa_ee import sim_engine


@pytest.fixture(autouse=True)
def _empty_link_memo():
    """Start each test with no kept link, so a test that counts synthesis
    calls does not depend on the link an earlier test left behind."""
    sim_engine._link_memo = None
