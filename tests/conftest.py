"""Fixtures shared by several test modules."""

import pytest

from gsda.smoothing import AdditiveProjector


@pytest.fixture
def projection_calls(monkeypatch):
    """(cycles, converged) of every AdditiveProjector.project call made."""
    calls = []
    project = AdditiveProjector.project

    def spy(self, g):
        fit = project(self, g)
        calls.append((fit.cycles, fit.converged))
        return fit

    monkeypatch.setattr(AdditiveProjector, "project", spy)
    return calls
