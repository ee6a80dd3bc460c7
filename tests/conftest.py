"""Hooks shared by every test module."""

import warnings

import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    # hypothesis imports libcst to explain a failing example, and libcst
    # warns on import; as an error that aborts the run at the first failing
    # property test, unnamed.  A filter set here sits inside pytest's own for
    # each test, so it outranks pyproject's "error" and a command-line
    # -W error alike.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
        )
        yield
