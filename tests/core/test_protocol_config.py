"""ProtocolConfig is frozen and rejects nonsense at construction."""

import dataclasses

import pytest

from repro.core import ProtocolConfig


def test_defaults_are_valid():
    config = ProtocolConfig()
    assert config.checkpoint_interval is None
    assert config.failure_resilience is False


def test_none_interval_disables_timer_and_zero_is_legal():
    assert ProtocolConfig(checkpoint_interval=None).checkpoint_interval is None
    assert ProtocolConfig(checkpoint_interval=0.0).checkpoint_interval == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"checkpoint_interval": -1.0},
        {"inquiry_retry_interval": -1e-9},
    ],
    ids=lambda kw: next(iter(kw)),
)
def test_negative_timeouts_rejected(kwargs):
    with pytest.raises(ValueError, match="must be >= 0"):
        ProtocolConfig(**kwargs)


def test_config_is_frozen():
    config = ProtocolConfig(checkpoint_interval=10.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.checkpoint_interval = 5.0
