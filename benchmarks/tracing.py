"""Per-layer tracing from outside the library.

``Tracer.install`` wraps each public function named in ``LAYERS`` and binds
the wrapper in every loaded ``flatqed`` namespace that holds the original
(the library imports functions by name, so patching the defining module
alone would miss most calls).  Each call records a span ``[name, parent,
start, end]`` in memory; a layer's self time is its span's duration minus
the durations of its direct child spans.  ``uninstall`` restores the
originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import OrderedDict
from time import perf_counter

LAYERS = (
    "lattice.real_space_hamiltonian",
    "spectrum.band_structure",
    "greens.eigensystem",
    "greens.resolvent_vector",
    "greens.fb_projector",
    "boundstate.omega0_for_detuning",
    "boundstate.solve_pole",
    "boundstate.bs_wavefunction",
    "boundstate.localization_length_fit",
    "interactions.interaction_matrix",
    "giant.giant_interaction",
    "giant.fb_membership_defect",
    "flatband.projector_cls_expansion",
    "flatband.xi_numeric",
    "dynamics.evolve",
    "dynamics.rabi_frequency",
)

# per-layer metrics beyond "<layer>.calls" and "<layer>.self_s"
EXTRA_METRICS = (
    "spectrum.band_structure.k_points",
    "greens.eigensystem.misses",
    "greens.eigensystem.hit_ratio",
    "greens.eigensystem.cache_mb",
    "greens.resolvent_vector.bytes_computed",
    "boundstate.solve_pole.resolvent_per_pole",
    "dynamics.evolve.dim",
)


def metric_names() -> list[str]:
    names = [f"{layer}.{stat}" for layer in LAYERS for stat in ("calls", "self_s")]
    return names + list(EXTRA_METRICS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._eigensystem = None
        self.k_points = 0
        self.resolvent_bytes = 0
        self.max_dim = 0
        # mirror of the eigensystem LRU: model -> bytes held, in LRU order
        self._cache: OrderedDict = OrderedDict()
        self._cache_bytes = 0
        self.cache_peak_bytes = 0

    # -- hooks: counts taken at the layer boundary from arguments/results --

    def _on_eigensystem(self, args, result) -> None:
        model = args[0]
        if model in self._cache:
            self._cache.move_to_end(model)
            return
        self._cache[model] = result[0].nbytes + result[1].nbytes
        self._cache_bytes += self._cache[model]
        if len(self._cache) > self._eigensystem.cache_info().maxsize:
            self._cache_bytes -= self._cache.popitem(last=False)[1]
        self.cache_peak_bytes = max(self.cache_peak_bytes, self._cache_bytes)

    def _on_resolvent(self, args, result) -> None:
        # computed, not measured: the complex copy of U is N^2 * 16 bytes
        self.resolvent_bytes += args[0].n_sites ** 2 * 16

    def _on_band_structure(self, args, result) -> None:
        self.k_points += result.k_grid.shape[0]

    def _on_evolve(self, args, result) -> None:
        self.max_dim = max(self.max_dim, args[0].n_sites + len(args[1]))

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        importlib.import_module("flatqed.cli")
        hooks = {
            "greens.eigensystem": self._on_eigensystem,
            "greens.resolvent_vector": self._on_resolvent,
            "spectrum.band_structure": self._on_band_structure,
            "dynamics.evolve": self._on_evolve,
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "flatqed" or n.startswith("flatqed.")]
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            orig = getattr(importlib.import_module(f"flatqed.{mod_name}"), fn_name)
            if layer == "greens.eigensystem":
                self._eigensystem = orig
            wrapper = self._wrap(layer, orig, hooks.get(layer))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self time, plus the extra counters."""
        n = len(self.spans)
        dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * n
        for i, span in enumerate(self.spans):
            if span[1] >= 0:
                child[span[1]] += dur[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for i, span in enumerate(self.spans):
            out[f"{span[0]}.calls"] += 1
            out[f"{span[0]}.self_s"] += dur[i] - child[i]

        def under_pole(i: int) -> bool:
            p = self.spans[i][1]
            while p >= 0:
                if self.spans[p][0] == "boundstate.solve_pole":
                    return True
                p = self.spans[p][1]
            return False

        in_poles = sum(1 for i, s in enumerate(self.spans)
                       if s[0] == "greens.resolvent_vector" and under_pole(i))
        info = self._eigensystem.cache_info()
        lookups = info.hits + info.misses
        poles = out["boundstate.solve_pole.calls"]
        out.update({
            "spectrum.band_structure.k_points": self.k_points,
            "greens.eigensystem.misses": info.misses,
            "greens.eigensystem.hit_ratio": info.hits / lookups if lookups else 0.0,
            "greens.eigensystem.cache_mb": self.cache_peak_bytes / 2 ** 20,
            "greens.resolvent_vector.bytes_computed": self.resolvent_bytes,
            "boundstate.solve_pole.resolvent_per_pole": in_poles / poles if poles else 0.0,
            "dynamics.evolve.dim": self.max_dim,
        })
        return out
