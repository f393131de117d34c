"""Canonical JSON serialization and fingerprints shared by the file formats."""

import json


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON: sorted keys, no insignificant whitespace,
    newline-terminated.  Two equal objects always produce identical bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# characters encoded at a time by sha256_hex
_HASH_BLOCK = 1 << 16


def sha256_hex(text: str) -> str:
    """Hex sha256 of text's UTF-8 bytes, encoded one block of characters at
    a time: UTF-8 encodes each character on its own, so the digest is that
    of the whole encoding, and hashing a large graph's text holds no second
    copy of it."""
    import hashlib  # loaded here: about 2 ms, and only fingerprints need it
    digest = hashlib.sha256()
    for lo in range(0, len(text), _HASH_BLOCK):
        digest.update(text[lo:lo + _HASH_BLOCK].encode("utf-8"))
    return digest.hexdigest()
