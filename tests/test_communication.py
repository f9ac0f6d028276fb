"""Communication accounting: only θ travels after the initial broadcast."""

import numpy as np
import pytest

from repro import nn
from repro.fl.communication import history_communication, round_communication
from repro.fl.rounds import RoundRecord, TrainingHistory

RNG = np.random.default_rng


def make_model(level):
    model = nn.SmallConvNet(4, RNG(0), channels=(4, 8, 8))
    model.apply_fine_tune_level(level)
    return model


def test_full_model_round_traffic_is_everything():
    model = make_model("full")
    comm = round_communication(model)
    total = sum(v.size for v in model.state_dict().values())
    assert comm.download_parameters == total
    assert comm.upload_parameters == total


def test_partial_round_traffic_is_theta_only():
    model = make_model("moderate")
    comm = round_communication(model)
    full = sum(v.size for v in model.state_dict().values())
    assert 0 < comm.download_parameters < full
    assert comm.download_parameters == comm.upload_parameters


def test_traffic_shrinks_with_deeper_freezing():
    sizes = [
        round_communication(make_model(level)).total_parameters
        for level in ("full", "large", "moderate", "classifier")
    ]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < sizes[0]


def test_round_traffic_fraction_of_full_model():
    """Per-round traffic relative to full-model FL: all of it at "full",
    under a fifth at "classifier"."""
    full = round_communication(make_model("full")).total_parameters
    assert full == 2 * sum(v.size for v in make_model("full").state_dict().values())
    reduction = round_communication(make_model("classifier")).total_parameters / full
    assert 0.0 < reduction < 0.2


def _campaign(rounds, participants):
    """A sync history in which ``participants`` clients train each round."""
    history = TrainingHistory()
    for r in range(1, rounds + 1):
        history.append(RoundRecord(
            round_index=r, test_accuracy=0.0,
            participants=tuple(range(participants)), selected_samples=0,
            client_seconds=0.0, cumulative_client_seconds=0.0,
            mean_local_loss=0.0,
        ))
    return history


def test_campaign_totals():
    model = make_model("moderate")
    campaign = history_communication(model, _campaign(10, 5), num_clients=5)
    per_round = round_communication(model).total_parameters
    full = sum(v.size for v in model.state_dict().values())
    expected = per_round * 10 * 5 + (full - per_round // 2) * 5
    assert campaign.total_parameters == expected
    assert campaign.bytes(8) == expected * 8
    assert campaign.bytes(4) == expected * 4


def test_campaign_partial_beats_full_when_long_enough():
    """Amortised over enough rounds, the θ-only protocol wins despite the
    one-off ϕ broadcast."""
    history = _campaign(20, 10)
    partial = history_communication(make_model("moderate"), history, 10)
    full = history_communication(make_model("full"), history, 10)
    assert partial.total_parameters < full.total_parameters


def test_validation():
    model = make_model("full")
    with pytest.raises(ValueError):
        round_communication(model).bytes(0)
