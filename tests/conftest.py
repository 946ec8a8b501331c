"""Fixtures shared by the test modules."""

import numpy as np
import pytest

LAPACK = ("eigvalsh", "eigh", "svd", "qr")


@pytest.fixture
def lapack_calls(monkeypatch):
    """Names of the np.linalg eigvalsh, eigh, svd and qr calls made while
    the test runs, in call order."""
    calls = []
    for name in LAPACK:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls

