"""Storage substrate: an in-memory persistent store.

The production implementation persists DAG vertices and consensus state in
RocksDB so a validator can crash and recover without losing safety.  The
simulator replaces RocksDB with an in-memory key-value store whose
contents survive a simulated crash (the store object outlives the crashed
validator object).
"""

from repro.storage.store import ColumnFamily, PersistentStore

__all__ = ["PersistentStore", "ColumnFamily"]
