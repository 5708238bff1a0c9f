"""The Leu-Bhargava concurrent robust checkpoint/rollback algorithm.

Public surface:

* :class:`~repro.core.engine.ProtocolEngine` — the sans-IO protocol state
  machine (procedures b1-b8 plus the Section 6 handlers) driven purely by
  its inputs, calling its ports (app, storage, host) and emitting typed
  effects.
* :class:`~repro.core.process.CheckpointProcess` — a kernel-bound process
  adapter that drives a :class:`ProtocolEngine` under the simulation or the
  live asyncio runtime.
* :class:`~repro.core.process.ProtocolConfig` — its tunables.
* :class:`~repro.core.extension.ExtendedCheckpointProcess` — the Section
  3.5.3 variant that keeps sending while a checkpoint is uncommitted.
* :class:`~repro.core.partition.PartitionCoordinator` — pessimistic
  partition handling with weighted voting.
* :mod:`~repro.core.messages` — the control-message vocabulary.

Attribute access is lazy (PEP 562) so that importing the pure modules —
``repro.core.engine``, ``repro.core.events``, ``repro.core.effects`` — never
drags in :mod:`repro.sim` through this package's adapter re-exports.
"""

from typing import Any, List

_EXPORTS = {
    "Application": ("repro.core.app", "Application"),
    "CheckpointProcess": ("repro.core.process", "CheckpointProcess"),
    "ChkptTreeState": ("repro.core.trees", "ChkptTreeState"),
    "CounterApp": ("repro.core.app", "CounterApp"),
    "ExtendedCheckpointProcess": ("repro.core.extension", "ExtendedCheckpointProcess"),
    "ExtendedProtocolEngine": ("repro.core.extension", "ExtendedProtocolEngine"),
    "LabelLedger": ("repro.core.labels", "LabelLedger"),
    "PartitionCoordinator": ("repro.core.partition", "PartitionCoordinator"),
    "ProtocolConfig": ("repro.core.process", "ProtocolConfig"),
    "ProtocolEngine": ("repro.core.engine", "ProtocolEngine"),
    "RollTreeState": ("repro.core.trees", "RollTreeState"),
    "TreeRegistry": ("repro.core.trees", "TreeRegistry"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
