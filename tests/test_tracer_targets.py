"""The names perfbench's tracer patches still exist in the library.

``perfbench/tracer.py`` wraps the functions its ``TARGETS`` name in every module
that binds them, and its own test checks a few of those bindings.  Those runs
are not part of this suite, so a refactor that drops or renames one of the names
would otherwise only break a traced benchmark run.  ``TARGETS`` is read from the
file at test time; the tracer imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

pytestmark = pytest.mark.skipif(not TRACER.is_file(), reason="no perfbench/tracer.py")


def _owner(dotted: str):
    """A module path, or a module path followed by one class name."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, name = dotted.rpartition(".")
        return getattr(importlib.import_module(module), name)


def test_every_target_resolves():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for _, owner, attribute in tracer.TARGETS:
        assert callable(getattr(_owner(owner), attribute, None)), f"{owner}.{attribute}"


@pytest.mark.parametrize(
    "name, home, modules",
    [
        ("apply_choi_to_segment", "qct.channels", ["qct.protocol", "qct.applications"]),
        ("evaluate", "qct.circuits", ["qct", "qct.channels", "qct.reduction"]),
    ],
)
def test_the_bindings_the_tracer_test_patches_exist(name, home, modules):
    original = getattr(importlib.import_module(home), name)
    for module in modules:
        assert getattr(importlib.import_module(module), name) is original, f"{module}.{name}"
