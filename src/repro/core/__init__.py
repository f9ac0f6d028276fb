"""The paper's contribution: FedFT-EDS.

Federated Fine-Tuning with Entropy-based Data Selection combines

1. **partial fine-tuning** of a pretrained global model — clients update
   only the upper part θ while the feature extractor ϕ stays frozen
   (:mod:`repro.core.partial`), and
2. **entropy-based data selection** with a hardened softmax — each round a
   client trains only on its most uncertain samples
   (:class:`repro.fl.EntropySelector`).

:mod:`repro.core.fedft_eds` exposes the one-call API tying both together
with the FL simulator.
"""

from repro.core.partial import adapt_to_task, prepare_partial_model
from repro.core.fedft_eds import FedFTEDSConfig, FedFTEDSResult, run_fedft_eds

__all__ = [
    "prepare_partial_model",
    "adapt_to_task",
    "FedFTEDSConfig",
    "FedFTEDSResult",
    "run_fedft_eds",
]
