"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each layer by wrappers,
patching the module attributes that the callers look up at call time
(`locate` is imported by name into `hjb` and `transport`, so it is
patched there as well as in `grid`). Each wrapper records a span (name,
parent span, start, end) in memory; a few also count page faults or
inspect their arguments. `dump` writes every span with its self time,
and `metrics` reduces the spans to the per-layer metrics.

Argument inspection (the monotone share, the useful QVI passes) runs
after the span has closed. Its time is recorded as paused time and taken
out of every enclosing span, so it does not show up as self time of the
caller.
"""

import functools
import inspect
import json
import resource
import statistics
import time
from collections import defaultdict

_NAME, _PARENT, _START, _END, _FAULTS, _PAUSE0, _PAUSE1 = range(7)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._paused = 0.0

    def wrap(self, name, fn, faults=False, after=None):
        """Wrapper recording one span per call; `after(bound_args, result)` inspects it."""
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0, self._paused, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            f0 = _minflt() if faults else 0
            rec[_START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                if faults:
                    rec[_FAULTS] = _minflt() - f0
                rec[_PAUSE1] = self._paused
                self._stack.pop()
            if after is not None:
                t = time.perf_counter()
                after(sig.bind(*args, **kwargs).arguments, out)
                self._paused += time.perf_counter() - t
            return out

        return wrapper

    def install(self):
        """Patch every traced function of lanemfg; call after importing it."""
        from lanemfg import baseline, cli, grid, hjb, mfg, scenario, transport

        for attr in ("preset", "parse_scenario", "scenario_from_dict", "scenario_to_dict"):
            setattr(scenario, attr, self.wrap("scenario.load", getattr(scenario, attr)))
        scenario.initial_field = self.wrap("scenario.initial_field", scenario.initial_field)
        cli.run = self.wrap("cli.run", cli.run)

        mfg.solve = self.wrap("mfg.solve", mfg.solve, faults=True)
        mfg.initialize_policies = self.wrap("mfg.initialize_policies", mfg.initialize_policies)
        mfg.residuals = self.wrap("mfg.residuals", mfg.residuals)
        baseline.uncontrolled_solve = self.wrap("baseline.uncontrolled_solve",
                                                baseline.uncontrolled_solve)

        hjb.solve_backward = self.wrap("hjb.solve_backward", hjb.solve_backward)
        hjb.qvi_backward_step = self.wrap("hjb.qvi_backward_step", hjb.qvi_backward_step)
        hjb.hamiltonian_step = self.wrap("hjb.hamiltonian_step", hjb.hamiltonian_step,
                                         faults=True, after=self._inspect_hamiltonian)
        hjb.jump_operator = self.wrap("hjb.jump_operator", hjb.jump_operator,
                                      after=self._inspect_jump)

        locate = self.wrap("grid.locate", grid.locate)
        grid.locate = hjb.locate = transport.locate = locate

        sweep = transport.sweep
        sweep_sig = inspect.signature(sweep)

        def sweep_traced_velocity(*args, **kwargs):
            bound = sweep_sig.bind(*args, **kwargs)
            bound.arguments["velocity_at"] = self.wrap("transport.velocity_at",
                                                       bound.arguments["velocity_at"])
            return sweep(*bound.args, **bound.kwargs)

        transport.sweep = self.wrap("transport.sweep", sweep_traced_velocity)
        for attr in ("forward_step", "g_operator", "mfg_source", "shvetsov_source"):
            setattr(transport, attr, self.wrap(f"transport.{attr}", getattr(transport, attr)))

    def _inspect_hamiltonian(self, a, _out):
        """Count evaluations and cells whose V_next does not rise over the foot window.

        A cell (lane, node) with positive speed s looks V_next up at the
        feet x + dt*u*s of every control level u; it counts as monotone
        when those looked-up values never increase with u.
        """
        import numpy as np

        v = np.atleast_2d(np.asarray(a["v_next"], dtype=float))
        rho = np.maximum(np.atleast_2d(np.asarray(a["rho"], dtype=float)), 0.0)
        g, p = a["g"], a["p"]
        u = np.asarray(a["controls"].levels, dtype=float)
        speed = np.minimum(p.a * rho, p.b * (p.rho_max - rho))
        moving = speed > 0
        nodes = np.linspace(g.x_lo, g.x_hi, g.node_count)
        feet = nodes[None, :, None] + a["dt"] * speed[:, :, None] * u
        looked_up = np.stack([np.interp(feet[lane], nodes, v[lane]) for lane in range(v.shape[0])])
        monotone = np.all(np.diff(looked_up, axis=2) <= 0.0, axis=2)
        self.counters["hamiltonian_evals"] += v.size * u.size
        self.counters["moving_cells"] += int(moving.sum())
        self.counters["monotone_cells"] += int((monotone & moving).sum())

    def _inspect_jump(self, a, out):
        import numpy as np

        psi, _target = out
        v = np.atleast_2d(np.asarray(a["v"], dtype=float))
        self.counters["useful_passes"] += int(bool((psi < v).any()))

    # ---- reduction -------------------------------------------------------

    def _durations(self):
        return [(r[_END] - r[_START]) - (r[_PAUSE1] - r[_PAUSE0]) for r in self.spans]

    def _self_times(self, dur):
        own = list(dur)
        for i, r in enumerate(self.spans):
            if r[_PARENT] >= 0:
                own[r[_PARENT]] -= dur[i]
        return own

    def dump(self, path):
        dur = self._durations()
        own = self._self_times(dur)
        t_first = self.spans[0][_START] if self.spans else 0.0
        spans = [{"id": i, "name": r[_NAME], "parent": r[_PARENT], "start_s": r[_START] - t_first,
                  "dur_s": dur[i], "self_s": own[i], "minor_faults": r[_FAULTS]}
                 for i, r in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": dict(self.counters), "spans": spans}, fh)

    def metrics(self, import_s, snapshot_bytes) -> dict:
        dur = self._durations()
        own = self._self_times(dur)
        total = defaultdict(float)  # inclusive time, outermost span of a name only
        self_s = defaultdict(float)
        calls = defaultdict(int)
        faults = defaultdict(int)
        for i, r in enumerate(self.spans):
            name = r[_NAME]
            calls[name] += 1
            self_s[name] += own[i]
            faults[name] += r[_FAULTS]
            parent = r[_PARENT]
            while parent >= 0 and self.spans[parent][_NAME] != name:
                parent = self.spans[parent][_PARENT]
            if parent < 0:
                total[name] += dur[i]

        c = self.counters
        ham_calls = calls["hjb.hamiltonian_step"]
        qvi_calls = calls["hjb.qvi_backward_step"]
        jump_calls = calls["hjb.jump_operator"]
        return {
            "import.lanemfg_s": import_s,
            "scenario.load_s": total["scenario.load"],
            "scenario.initial_field_s": total["scenario.initial_field"],
            "hjb.solve_backward_s": total["hjb.solve_backward"],
            "hjb.qvi_backward_step.self_s": self_s["hjb.qvi_backward_step"],
            "hjb.hamiltonian_step_s": total["hjb.hamiltonian_step"],
            "hjb.hamiltonian_step.calls": ham_calls,
            "hjb.hamiltonian_step.ns_per_eval":
                total["hjb.hamiltonian_step"] * 1e9 / c["hamiltonian_evals"] if ham_calls else 0.0,
            "hjb.hamiltonian_step.minor_faults":
                faults["hjb.hamiltonian_step"] / ham_calls if ham_calls else 0.0,
            "hjb.hamiltonian_step.monotone_share":
                c["monotone_cells"] / c["moving_cells"] if c["moving_cells"] else 0.0,
            "hjb.jump_operator_s": total["hjb.jump_operator"],
            "hjb.jump_operator.calls": jump_calls,
            "hjb.qvi_passes_per_step": jump_calls / qvi_calls if qvi_calls else 0.0,
            "hjb.qvi_useful_pass_share": c["useful_passes"] / jump_calls if jump_calls else 0.0,
            "grid.locate_s": total["grid.locate"],
            "grid.locate.calls": calls["grid.locate"],
            "transport.sweep_s": total["transport.sweep"],
            "transport.forward_step.self_s": self_s["transport.forward_step"],
            "transport.g_operator_s": total["transport.g_operator"],
            "transport.g_operator.calls": calls["transport.g_operator"],
            "transport.mfg_source_s": total["transport.mfg_source"],
            "transport.shvetsov_source_s": total["transport.shvetsov_source"],
            "transport.velocity_at_s": total["transport.velocity_at"],
            "mfg.outer_iterations": calls["mfg.residuals"],
            "mfg.outer_iteration_s": self._outer_iteration_median(),
            "mfg.initialize_policies_s": total["mfg.initialize_policies"],
            "mfg.residuals_s": total["mfg.residuals"],
            "mfg.solve.self_s": self_s["mfg.solve"],
            "mfg.solve.minor_faults": faults["mfg.solve"],
            "cli.io_s": self_s["cli.run"],
            "cli.snapshot_bytes": snapshot_bytes,
        }

    def _outer_iteration_median(self) -> float:
        """Median time from an outer iteration's forward sweep to the end of its residuals."""
        times = []
        last_sweep = {}
        for r in self.spans:
            parent = r[_PARENT]
            if parent < 0 or self.spans[parent][_NAME] != "mfg.solve":
                continue
            if r[_NAME] == "transport.sweep":
                last_sweep[parent] = r
            elif r[_NAME] == "mfg.residuals" and parent in last_sweep:
                s = last_sweep[parent]
                times.append((r[_END] - s[_START]) - (r[_PAUSE1] - s[_PAUSE0]))
        return statistics.median(times) if times else 0.0
