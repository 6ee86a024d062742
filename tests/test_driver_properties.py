"""Property tests of the descent driver over seeds, starts and objectives.

Whatever the draw, ``gsda_minimize`` must only accept steps that lower
f by the Armijo margin, never grow eps or tau, and report convergence
only with a finite point and value.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gsda import GsParams, Objective, gsda_minimize, l1_norm, nonsmooth_rosenbrock


def walled_l1(dim):
    """||x - c||_1 on the half-space x_0 >= 0 and +inf off it.

    The minimizer c = (0, 0.5, ...) sits on the wall, so ball draws near
    the end of a run land outside the domain and are redrawn.
    """
    c = np.zeros(dim)
    c[1:] = 0.5

    def f(x):
        return float(np.sum(np.abs(x - c))) if x[0] >= 0.0 else np.inf

    return Objective(f, lambda x: np.sign(x - c), dim)


OBJECTIVES = {
    "nsrosenbrock": lambda dim: nonsmooth_rosenbrock(),
    "l1": l1_norm,
    "walled_l1": walled_l1,
}


def check_run(obj, x0, gs):
    x, trace = gsda_minimize(obj, x0, gs)
    f = obj.eval(np.asarray(x0, dtype=float))
    eps, tau = gs.eps0, gs.tau0
    for rec in trace.records:
        assert rec.eps <= eps and rec.tau <= tau, "eps or tau grew"
        eps, tau = rec.eps, rec.tau
        if rec.event == "step":
            assert np.isfinite(rec.f)
            assert rec.f < f - gs.beta * rec.t * rec.gnorm, "step without Armijo decrease"
            f = rec.f
        else:
            assert rec.f == f, "f moved without a step"
    assert obj.eval(x) == f, "reported f is not f at the returned x"
    if trace.converged:
        assert np.all(np.isfinite(x)) and np.isfinite(f)
        assert eps <= gs.eps_min and tau <= gs.tau_min
    return trace


starts = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)
modes = st.sampled_from(["qp", "average"])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(OBJECTIVES)), dim=st.integers(2, 4),
       x0=st.lists(starts, min_size=4, max_size=4), seed=seeds, mode=modes)
def test_descent_invariants(name, dim, x0, seed, mode):
    obj = OBJECTIVES[name](dim)
    x0 = np.array(x0[:obj.dim])
    if name == "walled_l1":
        x0[0] = abs(x0[0])  # a feasible start
    check_run(obj, x0, GsParams(seed=seed, max_iter=300, subgradient_mode=mode))


@settings(max_examples=10, deadline=None)
@given(x0=st.floats(0.0, 1.0), seed=seeds)
def test_wall_hugging_runs_converge_feasibly(x0, seed):
    # in one dimension the minimizer is the wall itself: draws are
    # rejected at every radius, yet a converged run ends on the domain
    obj = walled_l1(1)
    trace = check_run(obj, np.array([x0]), GsParams(seed=seed, m=4, max_iter=400))
    assert trace.converged
