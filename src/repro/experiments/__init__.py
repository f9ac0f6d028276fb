"""Experiment harness: one runner per table and figure in the paper.

Every artefact in the paper's evaluation has an id (``table1`` … ``fig10c``)
registered in :mod:`repro.experiments.registry`; ``repro-experiments``
(:mod:`repro.experiments.run_all`) runs them at a chosen scale and writes
text + JSON reports. DESIGN.md carries the experiment index; EXPERIMENTS.md
records paper-vs-measured values.
"""

from repro.experiments.scales import SCALES, Scale, get_scale
from repro.experiments.common import (
    ExperimentHarness,
    MethodSpec,
    STANDARD_METHODS,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = [
    "Scale",
    "SCALES",
    "get_scale",
    "ExperimentHarness",
    "MethodSpec",
    "STANDARD_METHODS",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
]
