"""The benchmark tracer's call sites stay where the fitters call them.

fitbench's tracer patches named module globals (``tracer.SITES``) and
fails a traced run whose workload never calls one of its sites, or
whose traced fit and plain repeat disagree; its counters read some
arguments of the estimate functions by position.  These tests run one
fit of each workload under the tracer and once more without it, so a
refactor that moves a sampling, reduction or frame call away from its
site, moves an argument the tracer reads, or lets a fit notice the
tracer's wrappers, fails here as well as in
``fitbench/run.py --trace 1``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "fitbench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", ["quantile-additive", "pot-qp", "minimize"])
def test_traced_fit_hits_every_site_of_its_workload(tmp_path, name):
    w = workloads.WORKLOADS[name]
    inp = w.make_input(0, 0, str(tmp_path))  # pot-qp writes its CSV and artifacts here
    with Tracer() as tracer:
        outcome = w.check(inp, w.fit(inp, tracer))
    assert outcome.ok, outcome.detail
    assert tracer.missing_sites(w.sites) == []
    # the plain repeat, on the same input (pot-qp's in a fresh directory)
    plain = w.make_input(0, 0, str(tmp_path / "plain"))
    assert w.check(plain, w.fit(plain)) == outcome


def test_tracer_credits_the_m_each_pinball_draw_receives(monkeypatch, tmp_path):
    # the tracer credits quantile._sampled_subgradient's args[4] as the
    # estimate's feasible draws: it must be the m its sample_unit_ball call draws
    from gsda import quantile

    w = workloads.WORKLOADS["quantile-additive"]
    inp = w.make_input(0, 0, str(tmp_path))
    credited, pairs = [], []
    real_estimate, real_ball = quantile._sampled_subgradient, quantile.sample_unit_ball

    def estimate(*args):
        credited.append(args[4])
        return real_estimate(*args)

    def ball(a, m, rng, dim=None):
        pairs.append((credited[-1], m))
        return real_ball(a, m, rng, dim=dim)

    monkeypatch.setattr(quantile, "_sampled_subgradient", estimate)
    monkeypatch.setattr(quantile, "sample_unit_ball", ball)
    model = w.fit(inp)
    assert pairs and all(c == m for c, m in pairs)
    assert set(credited) == {model.trace.m}
