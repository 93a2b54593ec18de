"""Test-wide guards."""

import sys

import pytest

# The modules that hand out catport.dense names through a module __getattr__.
FORWARDING = ("catport", "catport.core", "catport.bases", "catport.protocols")


@pytest.fixture(autouse=True)
def no_dense_object_left_behind():
    """Fail a test that leaves a catport.dense object in a forwarding
    module's namespace, as undoing a monkeypatch of a forwarded name does.
    Such an object hides the forwarder from every later test, so it is
    removed before the failure is reported."""
    yield
    left = []
    for module in filter(None, map(sys.modules.get, FORWARDING)):
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if getattr(value, "__module__", None) == "catport.dense":
                left.append(f"{module.__name__}.{name}")
                del namespace[name]
    if left:
        pytest.fail(f"left catport.dense objects behind: {', '.join(left)}")
