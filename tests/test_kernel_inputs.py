"""The solvers hand their kernels float64 arrays with a lane axis.

The entry points (mfg.solve, mfg.initialize_policies, hjb.solve_backward,
transport.sweep and baseline.uncontrolled_solve) check their inputs once;
the kernels behind them take their arrays as given. Here every such kernel
is wrapped in each module that looks it up, and both modes of a small CLI
run check the arrays of every call, so a caller that hands a kernel a list,
a tuple or a one-lane row fails here, not inside the kernel.
"""

import inspect

import numpy as np
import pytest

from lanemfg import baseline, cli, hjb, mfg, model, transport
from lanemfg import scenario as sc

# kernel -> its array arguments: (lanes, nodes) float64, the switch targets int16,
# the exchange times (lanes,) float64
LANE_KERNELS = {
    "hamiltonian_step": ("v_next", "rho"),
    "jump_operator": ("v",),
    "forward_step": ("rho", "vel", "src"),
    "g_operator": ("w", "feet"),
    "mfg_source": ("rho", "q"),
    "shvetsov_source": ("rho", "t_left", "t_right"),
    "lwr_velocity": ("rho",),
    "total_mass": ("rho",),
    "transport_speed": ("rho",),
    "moving_span": ("rho",),
}
# pointwise evaluators, which the fast paths also call on gathered cells: float64, any shape
POINTWISE = {"flux_eval": ("rho",), "running_cost": ("rho",)}
PER_LANE = {"t_left", "t_right"}
MODULES = (model, hjb, transport, mfg, baseline, cli)

SCENARIO = {
    "lanes": 3,
    "domain": [0.0, 10.0],
    "horizon": 2.0,
    "node_count": 41,
    "step_count": 20,
    "flux": {"a": 3.0, "b": 1.0, "rho_max": 1.0},
    "cost": {"kappa": 0.05, "epsilon": 1e-5},
    "control_levels": [0.0, 0.5, 1.0],
    "target": [[7.0, 1]],
    "initial_density": {"samples": [
        [[0.0, 0.0], [3.0, 0.8], [6.0, 0.0], [10.0, 0.0]],
        [[0.0, 0.0], [5.0, 0.2], [8.0, 0.0], [10.0, 0.0]],
        [[0.0, 0.6], [2.0, 0.0], [10.0, 0.0]],
    ]},
    "solver": {"max_outer_iters": 2},
}


def _guard(name, fn, args, lane_axis, calls):
    sig = inspect.signature(fn)

    def wrapper(*a, **kw):
        bound = sig.bind(*a, **kw).arguments
        for arg in args:
            x = bound[arg]
            where = f"{name}({arg})"
            assert type(x) is np.ndarray, f"{where} got {type(x).__name__}"
            dtype = hjb.POLICY_DTYPE if arg == "q" else np.float64
            assert x.dtype == dtype, f"{where} got dtype {x.dtype}"
            ndim = 1 if arg in PER_LANE else 2
            assert not lane_axis or x.ndim == ndim, f"{where} got shape {x.shape}"
        calls[name] += 1
        return fn(*a, **kw)

    return wrapper


@pytest.mark.parametrize("mode", ["mfg", "uncontrolled"])
def test_kernels_get_lane_arrays(mode, monkeypatch, tmp_path):
    calls = {}
    for kernels, lane_axis in ((LANE_KERNELS, True), (POINTWISE, False)):
        for name, args in kernels.items():
            fn = next(getattr(m, name) for m in MODULES if hasattr(m, name))
            calls[name] = 0
            wrapper = _guard(name, fn, args, lane_axis, calls)
            for m in MODULES:
                if getattr(m, name, None) is fn:
                    monkeypatch.setattr(m, name, wrapper)

    cli.run(sc.scenario_from_dict(SCENARIO), mode, tmp_path)
    unused = {"mfg": {"shvetsov_source", "lwr_velocity"},
              "uncontrolled": {"hamiltonian_step", "jump_operator", "mfg_source",
                               "transport_speed", "moving_span", "running_cost"}}[mode]
    assert {name for name, n in calls.items() if n == 0} == unused
