"""The benchmark's tracer, loaded from perfbench/tracing.py as it stands, against the package.

The tracer wraps package functions by name, so a rename in the package
would leave a layer silently untimed; uninstalling must leave the package
as it was.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

# install imports these modules: loaded first, they are all in the snapshot
from biharm_lab import cli, parabolic as pb  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every attribute of every loaded package module and of the parabolic steppers."""
    holders = [m for key, m in sys.modules.items()
               if m is not None and (key == "biharm_lab" or key.startswith("biharm_lab."))]
    holders += [pb._PeriodicDiffusion, pb._RadialDiffusion]
    return {(id(h), attr): value for h in holders for attr, value in list(vars(h).items())}


def test_install_wraps_the_parabolic_layers_and_uninstall_restores_all():
    tracing = load_tracing()
    before = package_bindings()
    tracer = tracing.install(tracing.Tracer())
    try:
        patched = {(holder, attr): original for holder, attr, original in tracer._patched}
        assert patched
        for (holder, attr), original in patched.items():
            assert getattr(holder, attr) is not original
        wrapped = {original.__qualname__ for original in patched.values()
                   if inspect.isfunction(original) and original.__module__ == pb.__name__}
        assert wrapped == {
            "simulate", "_PeriodicDiffusion.cn_step", "_RadialDiffusion.cn_step",
            "verify_heat_diff_inequality", "verify_component_comparison",
            "verify_sign_propagation", "verify_scalar_power_bounds"}
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
