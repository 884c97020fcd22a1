"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` patches library functions by name (``SPANS`` and
``COUNTERS``, targets of the form ``module:qualname``).  A target that no
longer resolves fails only when a traced pass runs, so this test resolves
each one the way ``Tracer._patch`` does: a ``Class.attr`` target must be in
the class's own ``__dict__``, and a module-level one an attribute of the
module.  The tracer is only read, never installed.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [target for targets, _ in tracer.SPANS.values() for target in targets]
    return targets + list(tracer.COUNTERS.values())


@pytest.mark.parametrize("target", tracer_targets())
def test_target_resolves(target):
    module_name, qualname = target.split(":")
    module = importlib.import_module(f"galdescent.{module_name}")
    if "." in qualname:
        class_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, class_name))
    else:
        assert callable(getattr(module, qualname))
