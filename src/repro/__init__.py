"""repro — reproduction of FedFT-EDS (ICDCS 2025).

Federated Learning with Workload Reduction through Partial Training of
Client Models and Entropy-Based Data Selection.

The package is layered bottom-up:

- :mod:`repro.nn` — from-scratch NumPy neural-network substrate.
- :mod:`repro.data` — synthetic dataset worlds (CIFAR-10/100, Small
  ImageNet and Google Speech Commands stand-ins) and non-IID partitioning.
- :mod:`repro.fl` — federated-learning simulator (server, clients,
  aggregation, stragglers, analytic timing model).
- :mod:`repro.engine` — event-driven asynchronous engine: virtual-clock
  scheduler, FedAsync/FedBuff aggregation, serial and process execution
  backends, mid-round dropout (see DESIGN.md).
- :mod:`repro.core` — the paper's contribution: hardened-softmax
  entropy-based data selection + partial fine-tuning (FedFT-EDS).
- :mod:`repro.metrics` — CKA, learning efficiency, entropy statistics.
- :mod:`repro.pretrain` — source-domain pretraining and the centralised
  upper-bound baseline.
- :mod:`repro.experiments` — one runner per table/figure in the paper.

Quickstart::

    from repro.core import FedFTEDSConfig, run_fedft_eds
    result = run_fedft_eds(FedFTEDSConfig(seed=0))
    print(result.history.best_accuracy)
"""

__version__ = "1.0.0"
