"""RACE: one-sided RDMA-conscious extendible hashing [Zuo et al.].

The paper's authors reimplemented RACE from scratch (the original is
closed source); so do we.  The structure that matters for the scalability
study is preserved exactly:

* a client-cached directory pointing at segments spread over blades;
* two candidate buckets per key (two independent hashes), 8-byte slots
  holding ``fingerprint | size | KV-block address``;
* out-of-place KV blocks published with a single CAS — so a conflicting
  update costs one failed CAS plus a 3-op retry (re-read bucket, re-write
  KV, CAS again), the §3.3 amplification.
"""

from repro.apps.race.client import HashTableClient
from repro.apps.race.server import HashTableServer

__all__ = ["HashTableClient", "HashTableServer"]
