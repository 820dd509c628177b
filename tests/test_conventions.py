"""The suite's own conventions, set in conftest.py."""

import pytest


def test_relative_approx_has_no_absolute_floor():
    assert 1.0001e-8 != pytest.approx(1e-8, rel=1e-11)
    assert 1.0001e-8 == pytest.approx(1e-8, rel=1e-11, abs=1e-12)
    assert 1.0 + 1e-12 == pytest.approx(1.0, rel=1e-11)
