"""The benchmark's tracer patches trctee by name; a rename or deletion in
``src/trctee`` that one of its patches depends on fails here, not only in a
``perfbench/run.py --trace 1`` run."""

import importlib.util
from pathlib import Path

from trctee import device

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_every_target_and_uninstall_restores_it():
    kernels = dict(device.KERNELS)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        assert all(_current(owner, attr) is not original for owner, attr, original in patches)
        assert all(device.KERNELS[k] is not fn for k, fn in kernels.items())
    finally:
        tracer.uninstall()
    assert all(_current(owner, attr) is original for owner, attr, original in patches)
    assert device.KERNELS == kernels
