"""Benchmarks regenerating the paper's tables and figures, one per id.

Each ``test_experiment[<id>]`` times the full experiment driver (analysis
plus any model training not already cached by earlier benchmarks in the
session).  The ids run in ``EXPERIMENTS`` order, which the oracle
analysis relies on: it reuses the four models that fig10 trained
earlier in the same session, so its timed unit is the analysis itself.
Select one id by node id, e.g.::

    pytest "benchmarks/bench_experiments.py::test_experiment[fig1]" \
        --benchmark-only -s
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment

from conftest import run_once

#: Not wrapped here: faults has its own file (``bench_faults.py``, which
#: adds an assertion), and the serving experiments are not benchmarked as
#: experiments (``bench_serve.py``, ``bench_resilience.py`` and
#: ``bench_gateway.py`` time the serving path itself).
_NOT_WRAPPED = ("faults", "resilience", "gateway", "drift")

EXPERIMENT_IDS = [eid for eid in EXPERIMENTS if eid not in _NOT_WRAPPED]


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_experiment(benchmark, context, experiment_id):
    """One paper table or figure, by experiment id."""
    result = run_once(benchmark, lambda: run_experiment(experiment_id, context))
    print()
    print(result)
    assert result.data
