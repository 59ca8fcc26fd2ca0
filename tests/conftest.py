"""Shared fixtures."""

import os

import pytest

import bvdouble


@pytest.fixture
def subprocess_env():
    """Environment in which a child ``python -m bvdouble`` imports this package.

    Plain ``pytest`` puts ``src`` on ``sys.path`` only for itself, so the
    child gets it through ``PYTHONPATH``.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(bvdouble.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
