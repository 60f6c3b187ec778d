"""Layer spans recorded from outside the package.

``Tracer.install`` replaces chosen functions by timing wrappers in every
loaded ``biharm_lab`` module that holds a reference to them, so calls made
through ``from .x import f`` bindings are caught as well; ``uninstall`` puts
the originals back.  A span opens when control enters a layer from another
layer; calls inside the same layer run unwrapped, so recursion and internal
helpers do not inflate the counts.  A layer's self time is its span time
minus the time of the spans it encloses.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stack = []                      # [layer, child seconds] frames
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)    # inclusive time of named functions
        self.counts = defaultdict(float)     # work counters filled by hooks
        self.nested = 0                      # same-layer calls, run without a span
        self._patched = []
        self._wrappers = set()

    def wrap(self, layer, fn, total_key=None, before=None, after=None):
        """Timing wrapper for ``fn`` in ``layer``.

        The hooks run on every call, nested or not: ``before(args, kwargs)``
        returns a token that ``after(args, kwargs, result, token)`` receives
        with the return value.
        """
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            if stack and stack[-1][0] == layer:
                self.nested += 1
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dt
                    self.self_s[layer] += dt - frame[1]
                    self.calls[layer] += 1
                    if total_key:
                        self.total_s[total_key] += dt
            if after:
                after(args, kwargs, result, token)
            return result

        return wrapper

    def patch(self, owner, name, layer, **hooks):
        """Wrap ``owner.name`` (a module function or a class method)."""
        original = getattr(owner, name)
        wrapper = self.wrap(layer, original, **hooks)
        self._wrappers.add(wrapper)
        holders = [owner] if inspect.isclass(owner) else [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "biharm_lab" or key.startswith("biharm_lab."))]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._patched.append((holder, attr, original))

    def patch_module(self, module, layer, names=None):
        """Wrap the public, non-generator functions defined in ``module``."""
        for name, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and fn not in self._wrappers
                    and not name.startswith("_") and (names is None or name in names)
                    and not inspect.isgeneratorfunction(fn)):
                self.patch(module, name, layer)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics are built from."""
    mods = {name: importlib.import_module(f"biharm_lab.{name}") for name in (
        "_backend", "biharmonic", "system", "verify", "sweeps", "params",
        "serialize", "cli", "parabolic")}
    c = tracer.counts

    def ivp_after(args, kwargs, result, token):
        status, i_stop = result[4], result[5]
        c["ivp_nodes"] += i_stop + 1
        c["ivp_positive"] += status == 0

    def write_after(args, kwargs, result, token):
        text = args[1] if len(args) > 1 else kwargs["text"]
        c["serialize_bytes"] += len(text)

    def solves():
        return (tracer.calls["parabolic.diffusion.periodic"]
                + tracer.calls["parabolic.diffusion.radial"])

    def sim_before(args, kwargs):
        return solves(), time.perf_counter()

    def sim_after(args, kwargs, result, token):
        n_solves, t0 = token
        geometry = args[0] if args else kwargs["geometry"]
        # one split step is two half-step diffusion solves for each of u, v
        c["step_nodes"] += (solves() - n_solves) / 4 * geometry.num_nodes
        c["simulate_s"] += time.perf_counter() - t0

    tracer.patch(mods["_backend"], "radial_ivp", "backend.radial_ivp", after=ivp_after)
    tracer.patch(mods["biharmonic"], "shoot", "biharmonic.shoot")
    tracer.patch(mods["system"], "solve_radial_system", "system.solve_radial_system")
    tracer.patch_module(mods["system"], "system.verify", names={
        n for n in vars(mods["system"]) if n.startswith("verify_")})
    tracer.patch_module(mods["verify"], "verify")
    for name in ("system_sweep", "weak_bound_sweep", "region_sweep"):
        tracer.patch(mods["sweeps"], name, "sweeps", total_key=f"sweeps.{name}")
    tracer.patch_module(mods["sweeps"], "sweeps")
    tracer.patch_module(mods["params"], "params")
    tracer.patch(mods["serialize"], "atomic_write_text", "serialize", after=write_after)
    tracer.patch_module(mods["serialize"], "serialize")
    tracer.patch(mods["cli"], "main", "cli.main")
    pb = mods["parabolic"]
    tracer.patch(pb, "simulate", "parabolic.simulate", before=sim_before, after=sim_after)
    tracer.patch(pb._PeriodicDiffusion, "cn_step", "parabolic.diffusion.periodic")
    tracer.patch(pb._RadialDiffusion, "cn_step", "parabolic.diffusion.radial")
    tracer.patch_module(pb, "parabolic.verify", names={
        n for n in vars(pb) if n.startswith("verify_")})
    return tracer


def wrapper_cost_s(samples: int = 20000) -> tuple[float, float]:
    """Seconds a wrapper adds to one call: (with a span, nested without one).

    Medians over five rounds of wrapped against bare no-op calls.
    """
    def noop():
        return None

    probe = Tracer()
    spanned = probe.wrap("probe", noop)
    nested = probe.wrap("probe", noop)
    rounds = ([], [], [])
    for _ in range(5):
        for i, fn in enumerate((noop, spanned, nested)):
            if i == 2:
                probe.stack.append(["probe", 0.0])
            t0 = time.perf_counter()
            for _ in range(samples):
                fn()
            rounds[i].append(time.perf_counter() - t0)
            probe.stack.clear()
    bare, span, inner = (statistics.median(r) for r in rounds)
    return max(0.0, (span - bare) / samples), max(0.0, (inner - bare) / samples)


def layer_metrics(tracer: Tracer, passes: int, wall_s: float, extra: dict) -> dict:
    """Per-pass per-layer metrics; ``wall_s`` is the traced time per pass."""
    t, c = tracer, tracer.counts
    per = 1.0 / passes
    ivp_calls = t.calls["backend.radial_ivp"]
    ivp_s = t.self_s["backend.radial_ivp"]
    ser_s = t.self_s["serialize"]
    m = {
        "backend.radial_ivp.calls": (ivp_calls * per, "count"),
        "backend.radial_ivp.self_s": (ivp_s * per, "s"),
        "backend.radial_ivp.nodes": (c["ivp_nodes"] * per, "count"),
        "backend.radial_ivp.us_per_node": (1e6 * ivp_s / c["ivp_nodes"] if c["ivp_nodes"] else 0.0, "us"),
        "backend.radial_ivp.ms_per_call": (1e3 * ivp_s / ivp_calls if ivp_calls else 0.0, "ms"),
        "backend.radial_ivp.positive_ratio": (c["ivp_positive"] / ivp_calls if ivp_calls else 0.0, "ratio"),
    }
    for layer in ("biharmonic.shoot", "system.solve_radial_system", "verify", "system.verify",
                  "params", "serialize", "cli.main", "parabolic.simulate",
                  "parabolic.diffusion.periodic", "parabolic.diffusion.radial",
                  "parabolic.verify"):
        m[f"{layer}.calls"] = (t.calls[layer] * per, "count")
        m[f"{layer}.self_s"] = (t.self_s[layer] * per, "s")
    m["biharmonic.exact_max_err"] = (extra.get("exact_max_err", 0.0), "abs")
    m["biharmonic.residual_max"] = (extra.get("residual_max", 0.0), "abs")
    m["sweeps.self_s"] = (t.self_s["sweeps"] * per, "s")
    for name in ("system_sweep", "weak_bound_sweep", "region_sweep"):
        m[f"sweeps.{name}.total_s"] = (t.total_s[f"sweeps.{name}"] * per, "s")
    m["serialize.bytes"] = (c["serialize_bytes"] * per, "B")
    m["serialize.mb_per_s"] = (c["serialize_bytes"] / 1e6 / ser_s if ser_s else 0.0, "MB/s")
    solves = t.calls["parabolic.diffusion.periodic"] + t.calls["parabolic.diffusion.radial"]
    m["parabolic.steps"] = (solves / 4 * per, "count")
    m["parabolic.us_per_step_node"] = (
        1e6 * c["simulate_s"] / c["step_nodes"] if c["step_nodes"] else 0.0, "us")
    attributed = sum(t.self_s.values()) * per
    m["trace.wall_s"] = (wall_s, "s")
    span_cost, nested_cost = wrapper_cost_s()
    overhead = (span_cost * sum(t.calls.values()) + nested_cost * t.nested) * per
    m["trace.overhead_frac"] = (overhead / wall_s, "ratio")
    m["trace.unattributed_frac"] = (1.0 - attributed / wall_s, "ratio")
    return m
