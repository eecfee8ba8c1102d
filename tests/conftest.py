"""Fixtures shared by the test modules."""

import pytest

from scgscale import optimizer


@pytest.fixture
def overshooting_steps(monkeypatch):
    """Make every block of a run step three times its scale, so that the
    iterate-bound checker has real violations to count."""
    step_block = optimizer._step_block
    monkeypatch.setattr(
        optimizer, "_step_block",
        lambda xb, mb, kind, scale, scratch: step_block(xb, mb, kind, 3.0 * scale, scratch))
