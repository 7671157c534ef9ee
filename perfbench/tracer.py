"""In-memory span and counter tracing for the traced benchmark run.

Every public function a workload reaches is replaced, under the name its
caller looks it up by, with a wrapper that records a span: call count, total
time and self time (total minus the time of the spans it calls), aggregated
per span name. Module-level functions are patched in every module that binds
them (``stopping`` calls ``log_beta_pdf_half`` through its own global, not
through ``numerics``); methods are patched on their class. The hottest
lookups (``LOG_GAMMA``, ``log_beta_pdf``, the stream draws) are counted
without timing.

The self times of all spans plus the time spent outside any span add up to
the traced wall time exactly; the wrappers' own cost lands in the self time
of the span (or the benchmark loop) that made the call.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

from modestop import blockchain, bounds, elections, instances, numerics, stopping

__all__ = ["Tracer", "rule_token"]


def rule_token(rule) -> str:
    """The RULE_TOKENS name a rule object was built from."""
    if isinstance(rule, stopping.Ppr1v1Rule):
        return "ppr-1v1"
    if isinstance(rule, stopping.PprMdRule):
        return "ppr-md"
    if isinstance(rule, stopping.PprAdaptiveRule):
        return "ppr-adaptive"
    scheme = "1v1" if isinstance(rule, stopping.Generic1v1Rule) else "1vr"
    return f"{rule.engine.kind}-{scheme}"


class Tracer:
    """Patches the library while installed; ``stats`` maps a span name to
    [calls, total seconds, self seconds], ``counters`` a counter name to its
    count."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def span(self, name: str | Callable[[object], str], fn):
        """Wrap fn in a span; a callable name is applied to the first
        argument (the instance, for methods) on every call."""
        stack = self._stack
        clock = time.perf_counter
        fixed = None if callable(name) else self._stat(name)
        stat_of = self._stat

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat = fixed if fixed is not None else stat_of(name(args[0]))
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child

        return wrapped

    def count(self, name: str, fn, amount: Callable | None = None):
        """Wrap fn so that each call adds 1 (or amount(*args)) to a counter."""
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counters[name] += 1 if amount is None else amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapped

    def spans_total(self) -> float:
        """Summed duration of the outermost spans."""
        return self._stack[0]

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, modules, attr: str, make) -> None:
        """Patch one module-level function in each module that binds it."""
        original = getattr(modules[0], attr)
        wrapper = make(original)
        for module in modules:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not the traced function")
            self._patch(module, attr, wrapper)

    def install(self, workloads_module) -> None:
        """Patch the library, plus the benchmark's own references to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        span, count, fn = self.span, self.count, self._patch_function

        # instances
        fn([instances, workloads_module], "derive_stream",
           lambda f: span("instances.derive_stream", f))
        S = instances.SamplePath
        self._patch(S, "__getitem__", span("instances.path_draw", S.__getitem__))
        T = instances.TallyState
        self._patch(T, "update", span("instances.tally_update", T.update))
        self._patch(T, "add_counts", span("instances.add_counts", T.add_counts))
        R = instances.SeededStream
        self._patch(R, "uniforms", count("instances.uniforms_drawn", R.uniforms,
                                         lambda stream, n: int(n)))

        # stopping
        fn([stopping, elections, blockchain], "make_rule", lambda f: span("stopping.make_rule", f))
        fn([stopping], "declaration_time", lambda f: span("stopping.declaration_time", f))
        fn([stopping], "run_mode_estimation", lambda f: span("stopping.run_mode_estimation", f))
        check_name = lambda rule: "stopping.check." + rule_token(rule)  # noqa: E731
        for cls in (stopping.Ppr1v1Rule, stopping.Generic1v1Rule, stopping.Generic1vrRule,
                    stopping.PprMdRule, stopping.PprAdaptiveRule):
            self._patch(cls, "check", span(check_name, cls.check))
        A = stopping.PprAdaptiveRule
        self._patch(A, "observe", span("stopping.observe", A.observe))

        # bounds
        fn([stopping, bounds], "pair_beats_half", lambda f: span("bounds.pair_beats_half", f))
        fn([stopping, bounds], "one_vs_rest_separated",
           lambda f: span("bounds.one_vs_rest_separated", f))
        fn([bounds, elections, stopping], "make_engine", lambda f: span("bounds.make_engine", f))
        E = bounds.BoundEngine
        self._patch(E, "interval", span("bounds.interval", E.interval))

        # numerics; invert_kl_upper calls invert_kl_lower through numerics,
        # so only the names bounds looks up are spans (one per inversion)
        fn([numerics, stopping, bounds], "log_beta_pdf_half",
           lambda f: span("numerics.log_beta_pdf_half", f))
        G = numerics.LogGammaTable
        self._patch(G, "__call__", count("numerics.log_gamma.calls", G.__call__))
        fn([numerics], "log_beta_pdf", lambda f: count("numerics.log_beta_pdf.calls", f))
        fn([numerics, bounds], "posterior_level_crossings",
           lambda f: span("numerics.level_crossings", f))
        fn([bounds], "invert_kl_lower", lambda f: span("numerics.invert_kl", f))
        fn([bounds], "invert_kl_upper", lambda f: span("numerics.invert_kl", f))

        # elections
        fn([elections], "run_election", lambda f: span("elections.run_election", f))
        run = elections.ElectionRun
        self._patch(run, "step", span("elections.step", run.step))
        self._patch(run, "rr_select", span("elections.select", run.rr_select))
        self._patch(run, "dcb_select", span("elections.select", run.dcb_select))
        self._patch(run, "aggregate_check", span("elections.aggregate_check", run.aggregate_check))

        # blockchain; every report in a batch is one draw from the trial's stream
        fn([blockchain], "run_verification", lambda f: span("blockchain.run_verification", f))
        fn([blockchain], "draw_batch", lambda f: span(
            "blockchain.draw_batch",
            count("instances.uniforms_drawn", f, lambda pool, stream: pool.batch_size)))
        fn([blockchain], "sprt_step", lambda f: span("blockchain.sprt_step", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
