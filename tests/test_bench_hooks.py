"""The traced benchmark resolves degenq functions by name; a rename or deletion
in src/ must fail here rather than silently drop a per-layer metric."""

import importlib.util
import types
from pathlib import Path

from degenq import scalars

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_and_count_targets_resolve():
    spans = _load("spans")
    missing = []
    for name, module, attr in spans.SPANNED + spans.COUNTED:
        try:
            _, _, fn = spans.resolve(module, attr)
        except (AttributeError, KeyError, ImportError) as exc:
            missing.append(f"{name}: {module}.{attr} ({exc!r})")
            continue
        # run.py --trace 1 finds each target's cProfile entry by its __code__,
        # which a memo wrapper such as functools.lru_cache does not have.
        if not isinstance(fn, types.FunctionType):
            missing.append(f"{name}: {module}.{attr} is {type(fn).__name__}, not a plain function")
    assert not missing


def test_scalar_profile_targets_exist():
    run = _load("run")
    assert callable(scalars._canonical_pair)
    for name in run.GCD_FUNCS:
        assert callable(getattr(scalars, name, None)), name
    for cls, meth in run.SCALAR_FUNCS.values():
        assert meth in vars(getattr(scalars, cls)), f"{cls}.{meth}"
