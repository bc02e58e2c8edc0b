"""Regenerate the paper-table fixture that drives the benchmark's fleets.

Solves the relaxed problem on the ``configs/fig2a.cfg`` network (K=40, ten
harvest classes of 2048 states) with the default tolerances, and stores the
ten per-class lower and upper tables, the mixing factor, the bracketing prices
and the lower bound in ``bench/data/fig2a_tables.npz``. The solve takes about
two minutes on one core. It also prints the solver's exact work counts
and its CPU time.

    python3 bench/make_fixture.py
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from run import CLOCK, FIXTURE, load_spec_network, solver_layer_metrics, solver_patch
from tracing import Tracer


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    from aoisched import sensor_classes, solve_relaxed

    network = load_spec_network("fig2a.cfg")
    classes, _, class_of = sensor_classes(network)
    tracer = Tracer()
    started = CLOCK()
    with solver_patch(tracer):
        solution = solve_relaxed(network)
    solve_s = CLOCK() - started

    first = [int(np.flatnonzero(class_of == c)[0]) for c in range(len(classes))]
    lower = np.stack([solution.policies[k].lower.actions for k in first])
    upper = np.stack([solution.policies[k].upper.actions for k in first])
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with FIXTURE.open("wb") as fh:
        np.savez_compressed(
            fh,
            harvest=np.array([c.harvest_rate for c in classes]),
            lower=lower,
            upper=upper,
            eta=solution.eta,
            mu_star=solution.mu_star,
            mu_minus=solution.lagrange.mu_minus,
            mu_plus=solution.lagrange.mu_plus,
            lower_bound=solution.avg_cost,
            command_rate=solution.command_rate,
        )
    report = {
        "lower_bound": solution.avg_cost,
        "dual_bound": solution.lagrange.dual_bound,
        "eta": solution.eta,
        "solve_s": solve_s,
        **solver_layer_metrics(tracer.counts, tracer.busy, solution, len(classes), solve_s),
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
