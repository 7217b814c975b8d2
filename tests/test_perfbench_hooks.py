"""The benchmark's hook targets exist in the package.

A traced benchmark run wraps each (owner, attribute) of ``perfbench/spans.py``'s
``HOOKS`` and reports a target it cannot find as absent, dropping that layer's
metrics without failing. So a rename in ``netsim``, ``engine`` or ``seeds``
must fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_every_hook_target_resolves():
    hooks = load_hooks()
    assert hooks
    for name, owner, attribute, _ in hooks:
        module_name, _, class_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if class_name:
            assert hasattr(target, class_name), (name, owner)
            target = getattr(target, class_name)
        assert callable(getattr(target, attribute, None)), (name, owner, attribute)
