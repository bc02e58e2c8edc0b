"""What ``bench/run.py`` and ``bench/make_fixture.py`` rely on in the relaxed solver.

The benchmark traces a solve by replacing module globals of
``aoisched.relaxed_solver``, empties every ``cache_clear``-able cache of the
model and the solver for a cold solve, and builds solver records from the
paper fixture. These tests pin that surface.
"""

import dataclasses

import numpy as np
from caches import clear_package_caches, package_caches

from aoisched import (
    LagrangeSolve,
    MixedPolicy,
    NetworkConfig,
    PerSensorSolve,
    PolicyTable,
    RelaxedSolution,
    SensorParams,
    relaxed_solver,
    solve_relaxed,
)

TINY1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))


def test_solve_reaches_traced_functions_through_module_globals(monkeypatch):
    # The benchmark counts the global evaluate_per_sensor's calls as mixture
    # evaluations (its eta steps), so the solve may call it on mixtures only:
    # policy iteration evaluates its tables without it.
    calls = {"solve_per_sensor": 0, "evaluate_per_sensor": 0}
    evaluated = []
    for name in calls:
        inner = getattr(relaxed_solver, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            if _name == "evaluate_per_sensor":
                evaluated.append(kwargs.get("policy", args[2] if len(args) > 2 else None))
            return _inner(*args, **kwargs)

        monkeypatch.setattr(relaxed_solver, name, counted)
    net = NetworkConfig(20, 1, 1, 2, (TINY1,) * 20)
    for _ in range(2):  # the second solve is cold again after the caches are emptied
        clear_package_caches()
        before = dict(calls)
        solution = solve_relaxed(net)
        assert calls["solve_per_sensor"] - before["solve_per_sensor"] == len(
            solution.lagrange.evaluations
        )
        assert calls["evaluate_per_sensor"] > before["evaluate_per_sensor"]
    assert 0.0 < solution.eta < 1.0
    assert evaluated and all(isinstance(p, MixedPolicy) for p in evaluated)


def test_names_and_fields_the_benchmark_reads():
    assert isinstance(relaxed_solver.DEFAULT_THETA, float)
    assert "iterations" in {f.name for f in dataclasses.fields(PerSensorSolve)}
    table = PolicyTable(np.zeros(8, dtype=np.int8), 0.0)
    lagrange = LagrangeSolve(
        mu_star=1.0, mu_minus=0.5, mu_plus=1.5, evaluations=(),
        per_sensor_rel_values=(), per_sensor_lagrangians=(), per_sensor_rates=(),
        dual_bound=float("nan"),
    )
    RelaxedSolution(
        policies=(MixedPolicy(table, table, 0.5),), mu_star=1.0, eta=0.5, avg_cost=1.0,
        command_rate=0.1, constraint_active=True, lagrange=lagrange,
        per_sensor_cost_rates=(), per_sensor_command_rates=(),
    )


def test_emptied_caches_hold_no_slot_maps():
    # A cold solve builds each model, its chain pattern and its Poisson slot
    # maps again: every cache of the model and the solver is one the
    # benchmark's sweep empties and a solve refills, not state on the model
    # or in a module dict, which would make its solve_s a warm solve. A cache
    # added later joins the sweep by being found here.
    net = NetworkConfig(20, 1, 1, 2, (TINY1,) * 20)
    solve_relaxed(net)
    caches = package_caches()
    assert {"aoisched.model.sensor_model", "aoisched.relaxed_solver._chain_pattern",
            "aoisched.relaxed_solver._system_slots"} <= caches.keys()
    clear_package_caches()
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == dict.fromkeys(
        caches, 0)
    solve_relaxed(net)
    assert all(cache.cache_info().currsize >= 1 for cache in caches.values()), {
        name: cache.cache_info() for name, cache in caches.items()}
