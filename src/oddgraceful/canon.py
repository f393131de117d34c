"""Canonical JSON serialization and fingerprints shared by the file formats."""

import json


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON: sorted keys, no insignificant whitespace,
    newline-terminated.  Two equal objects always produce identical bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_hex(text: str) -> str:
    import hashlib  # loaded here: about 2 ms, and only fingerprints need it
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
