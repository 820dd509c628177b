"""Shared test configuration: determinism and acceptance reporting.

The whole suite must produce identical results run to run, so hypothesis
is derandomized; Monte Carlo tests draw transmittances with the samplers
of oracles.py from numpy generators of a fixed seed for the same reason.

Tests in test_acceptance.py are the release gate: each maps to one named
criterion, and a terminal-summary hook prints an explicit PASS/FAIL line
per criterion so the verdict is readable without digging through pytest
output.

``pytest.approx(x, rel=r)`` alone also accepts any error up to its default
``abs=1e-12``, which on small values dwarfs the relative bound (a 1e-8
survival checked at rel=1e-11 would pass at 1e-4 relative).  So in this
suite a ``rel=`` without an ``abs=`` means ``abs=0``: a relative bound is
exactly that.  A test that wants an absolute floor says so with ``abs=``.
"""

import pytest
from hypothesis import settings

settings.register_profile(
    "suite", derandomize=True, max_examples=25, deadline=None
)
settings.load_profile("suite")

_approx = pytest.approx


def _relative_approx(expected, rel=None, abs=None, nan_ok=False):
    if rel is not None and abs is None:
        abs = 0.0
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


@pytest.fixture(autouse=True, scope="module")
def _rel_means_relative():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pytest, "approx", _relative_approx)
        yield


_acceptance_results = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_results[name] = report.passed
    elif report.when == "setup" and report.failed:
        _acceptance_results[name] = False


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results):
        passed = _acceptance_results[name]
        label = name.removeprefix("test_criterion_").replace("_", " ")
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {label:<46s} {verdict}",
            green=passed, red=not passed,
        )
