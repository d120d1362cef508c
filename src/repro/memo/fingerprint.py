"""Code-version fingerprint for memo keys.

A cached simulation result is only reusable while the engine still
produces byte-identical statistics, and the repo already maintains the
exact sentinel for that: the golden digests in
``tests/goldens/determinism.json``, which every tier-1 run pins the
engine against.  The digests are *embedded here as a literal* — not
read from disk — so that installed/packaged trees hash the same value,
and a test (``tests/test_memo.py``) asserts the literal matches the
committed golden file.  The update discipline is therefore forced:
changing engine semantics requires re-recording the goldens, which
requires updating this literal, which rolls every memo key.
"""

from __future__ import annotations

import hashlib

# Canonical rendering lives in repro.manifest (the single identity-
# serialisation home); re-exported here for existing importers.
from ..manifest import canonical_json

__all__ = [
    "MEMO_SCHEMA", "EMBEDDED_GOLDEN_DIGESTS", "canonical_json",
    "code_fingerprint",
]

#: Schema version of the memoized payloads themselves; bump to shed
#: every existing cache entry without touching the goldens.
MEMO_SCHEMA = "repro-memo/2"

#: Copy of tests/goldens/determinism.json (see module docstring).
EMBEDDED_GOLDEN_DIGESTS = {
    "bh": "e720bd3adfa7cf5dcd682c88445909afe9a12a56b891b8f0aca58910f4686bcb",
    "ca_rwr": "80eee0f5f939548d51c718ec80b9a0787a7618f54b13b4bce4d50b822bd7a2ae",
    "cp_sd": "0769cb1de2abe84f5f96b591e33918e5238b1da50a4d7f257481875f354d5ad0",
}


def code_fingerprint() -> str:
    """Digest of (memo schema, embedded golden digests)."""
    payload = {"schema": MEMO_SCHEMA, "goldens": EMBEDDED_GOLDEN_DIGESTS}
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
