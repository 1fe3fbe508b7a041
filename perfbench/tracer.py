"""Span tracer that times calls into spinlab's public functions from outside.

The tracer replaces each target function with a wrapper on *every*
``spinlab.*`` module attribute bound to that function object, because
modules import each other's functions by name (``evolution`` binds
``symbol_matrix``/``pack``/``unpack``, ``higher_spin`` binds
``symmetrize``). A span is ``[name, start, end, parent, iteration]``; spans
stay in memory until the caller writes them out. :meth:`Tracer.remove`
puts the original function objects back on every module it patched.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable, Iterable

PACKAGE = "spinlab"

# Public functions timed per module. A name missing from its module (for
# example after a refactor moves it) is skipped and reports zero calls.
TARGETS: dict[str, tuple[str, ...]] = {
    "minkowski": ("metric_eval", "classify_causal", "is_restricted_lorentz"),
    "clifford": ("covering_lambda", "exp_spin", "pauli_intertwiner", "dirac_collection_check"),
    "spinor_core": (
        "symmetrize",
        "raise_lower",
        "contract",
        "apply_sl2",
        "sigma_map",
        "clebsch_split",
        "frame_invariance_check",
    ),
    "higher_spin": (
        "symbol_matrix",
        "pairing_matrix",
        "gram_matrix",
        "gram_signature",
        "witness_pair",
        "apply_symbol",
        "pack",
        "unpack",
        "gen_pairing",
        "xi_form",
        "check_prenormal_factorization",
    ),
    "evolution": (
        "evolve",
        "conservation_report",
        "divergence_check",
        "causal_support_check",
        "retarded_kernel",
        "retarded_green_apply",
        "green_residual",
        "plane_wave",
    ),
    "cli": ("algebra_suite", "symbols_suite", "signature_suite", "evolution_suite"),
}

# hook(args, kwargs, result) runs after the span of the named function closes
Hook = Callable[[tuple, dict, object], None]


class Tracer:
    """Records nested call spans for the functions in ``targets``."""

    def __init__(
        self,
        targets: dict[str, Iterable[str]] = TARGETS,
        hooks: dict[str, Hook] | None = None,
        iteration: int = 0,
    ) -> None:
        self.targets = {mod: tuple(names) for mod, names in targets.items()}
        self.hooks = dict(hooks or {})
        self.spans: list[list] = []
        self.iteration = iteration
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _modules() -> list:
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Wrap every target on every package module that binds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for mod_name, names in self.targets.items():
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if home is None:
                continue
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fname}", fn)
                for mod in modules:
                    bound = [attr for attr, val in vars(mod).items() if val is fn]
                    for attr in bound:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def remove(self) -> None:
        """Restore the original function objects, newest patch first."""
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their durations add up to the covered time.
    """
    own = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for (_, start, end, parent, _) in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [d - c for d, c in zip(own, covered)]


def layer_totals(spans: list[list], targets: dict[str, Iterable[str]] = TARGETS) -> dict:
    """Self seconds and call counts per module and per function.

    Every target appears, with zeros when it was never called, so the
    metric set is the same on every workload.
    """
    totals: dict[str, list] = {}
    for mod, names in targets.items():
        totals[mod] = [0.0, 0]
        for fname in names:
            totals[f"{mod}.{fname}"] = [0.0, 0]
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        for key in (name, name.split(".", 1)[0]):
            totals[key][0] += own
            totals[key][1] += 1
    return {key: {"self_s": s, "calls": n} for key, (s, n) in totals.items()}
