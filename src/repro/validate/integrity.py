"""File-level integrity: sha256 digest verification.

Every digest-enabled writer stamps a ``sha256sum``-compatible
``<path>.sha256`` sidecar through :mod:`repro.atomicio`, and every
loader verifies it before trusting the bytes, so a single flipped bit
anywhere in an artifact raises :class:`~repro.errors.ArtifactCorruptError`
instead of silently poisoning a resume or a figure.  This module holds
the artifact-agnostic checks layered over those primitives.

Append-only journals get one extra affordance,
:func:`verify_journal_bytes`: a crash can legally land between the
journal append and the sidecar rewrite (or tear the append itself), so
a full-content mismatch falls back to checking the prefix without the
final line before declaring corruption.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional, Tuple, Union

from repro.atomicio import digest_path, read_digest
from repro.errors import ArtifactCorruptError, ArtifactInvalidError

PathLike = Union[str, os.PathLike]

__all__ = [
    "has_digest",
    "verify_journal_bytes",
    "verify_file_sha256",
    "verify_sealed_shard",
    "sha256_bytes",
]


def sha256_bytes(data: bytes) -> str:
    """sha256 hex digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def has_digest(path: PathLike) -> bool:
    """Whether a digest sidecar exists for ``path``."""
    return digest_path(path).exists()


def verify_file_sha256(
    path: PathLike, expected: str, what: str = "artifact"
) -> str:
    """Stream ``path`` through sha256 and require the ``expected`` digest.

    The population-scale check: the file's bytes are hashed in chunks
    (:func:`repro.atomicio.sha256_file`) without ever being held in
    memory, so a multi-gigabyte shard verifies with flat memory.
    Returns the digest on match; raises
    :class:`~repro.errors.ArtifactCorruptError` naming both digests on
    mismatch.
    """
    from repro.atomicio import sha256_file

    actual = sha256_file(path)
    if actual != expected:
        raise ArtifactCorruptError(
            f"{path}: {what} digest mismatch -- file hashes to "
            f"sha256:{actual} but sha256:{expected} was recorded; the "
            f"{what} was modified or corrupted after it was written"
        )
    return actual


def verify_sealed_shard(manifest_path: PathLike, shard: dict) -> str:
    """The one check of a sealed shard against its manifest record.

    ``shard`` is one schema-checked entry of the manifest's ``shards``
    list; the shard file sits next to the manifest.  It must exist
    (:class:`~repro.errors.ArtifactInvalidError` otherwise), hold the
    recorded number of bytes and hash to the recorded sha256
    (:class:`~repro.errors.ArtifactCorruptError` otherwise).  Returns
    the shard's path.  Both readers of a sealed export -- ``validate``
    and :func:`repro.core.flipdb.iter_shard_measurements` -- call it.
    """
    base = os.path.dirname(os.path.abspath(str(manifest_path)))
    shard_path = os.path.join(base, shard["name"])
    if not os.path.exists(shard_path):
        raise ArtifactInvalidError(
            f"{manifest_path}: manifest names shard {shard['name']}, which "
            f"does not exist next to it"
        )
    size = os.path.getsize(shard_path)
    if size != shard["bytes"]:
        raise ArtifactCorruptError(
            f"{shard_path}: shard is {size} byte(s) but the manifest "
            f"records {shard['bytes']}; the shard was truncated or "
            f"rewritten after it was sealed"
        )
    verify_file_sha256(shard_path, shard["sha256"], what="shard")
    return shard_path


def verify_journal_bytes(
    path: PathLike, raw: bytes
) -> Tuple[bool, Optional[str]]:
    """Verify an append-only journal's bytes against its sidecar.

    Returns ``(verified, prefix_note)``:

    * sidecar absent -> ``(False, None)`` (nothing to verify against);
    * full content matches -> ``(True, None)``;
    * the prefix without the final line matches -> ``(True, note)``: the
      writer crashed between appending the last line and restamping the
      sidecar (or tore the append); the final line must be re-validated
      by the parser, everything before it is verified;
    * otherwise :class:`~repro.errors.ArtifactCorruptError`, naming the
      file and both digests.
    """
    recorded = read_digest(path)
    if recorded is None:
        return False, None
    actual = sha256_bytes(raw)
    if actual == recorded:
        return True, None
    prefix = _without_final_line(raw)
    if prefix is not None and sha256_bytes(prefix) == recorded:
        return True, (
            "digest sidecar predates the final journal line (crash "
            "between append and restamp); verified the preceding "
            f"{len(prefix)} byte(s), the final line is unverified"
        )
    raise ArtifactCorruptError(
        f"{path}: content digest mismatch -- file hashes to "
        f"sha256:{actual} but sidecar {digest_path(path).name} records "
        f"sha256:{recorded}; the artifact was modified or corrupted "
        f"after it was written"
    )


def _without_final_line(raw: bytes) -> Optional[bytes]:
    """The journal bytes with the final (possibly torn) line removed.

    ``None`` when there is no earlier line to fall back to.
    """
    trimmed = raw[:-1] if raw.endswith(b"\n") else raw
    cut = trimmed.rfind(b"\n")
    if cut < 0:
        return None
    return raw[: cut + 1]
