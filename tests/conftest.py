import sys

import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """The (name, matrix shape) of every np.linalg eigvals, eig and solve call, in call order."""
    calls = []
    for name in ("eigvals", "eig", "solve"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *b, name=name, f=solve: calls.append((name, a.shape)) or f(a, *b))
    return calls


def pytest_terminal_summary(terminalreporter):
    """Echo the per-criterion acceptance lines after capture ends."""
    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance" and getattr(mod, "LINES", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.LINES:
                terminalreporter.write_line(line)
            break
