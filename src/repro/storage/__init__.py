"""Durable storage for SL-Remote: per-shard write-ahead ledgers.

The in-memory ledgers in :mod:`repro.core.sl_remote` are authoritative
while a shard is alive; this package makes them survive a SIGKILL.  See
:mod:`repro.storage.wal` for the log format and the recovery protocol.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "RecoveryReport": "repro.storage.wal",
    "ShardPersistence": "repro.storage.wal",
    "WalRecord": "repro.storage.wal",
    "WriteAheadLog": "repro.storage.wal",
    "attach_persistence": "repro.storage.wal",
    "derive_wal_key64": "repro.storage.wal",
})
