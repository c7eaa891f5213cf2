"""Incremental lint cache: per-file results keyed by content hash.

File-granularity rules derive every finding for a module from that
module's source plus the shared dataflow summary layer.  That makes
their results cacheable: an entry is valid exactly when

* the file's content hash is unchanged, **and**
* the cache *key* is unchanged — a digest over the cross-file
  :class:`~repro.lint.dataflow.ModuleSummaries` (so a callee edited in
  another file invalidates every cached result that could have
  consumed its summary) and the signature of the selected
  file-granularity rules (so adding, removing or re-selecting rules
  never serves stale verdicts).

Tree-granularity rules (the registry family) reason across files and
always re-run; runtime findings describe live components and are
never cached.  Entries store the *post-waiver* split — waiver
parsing reads only the file's own comments, so it is covered by the
content hash.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

#: Bump when the entry schema changes; old caches are discarded whole.
CACHE_VERSION = 1


def content_hash(source: str) -> str:
    """Stable hash of one file's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def cache_key(summaries_digest: str, rule_ids: Sequence[str]) -> str:
    """The run-wide validity key (summary layer + selected rules)."""
    payload = json.dumps(
        {"summaries": summaries_digest, "rules": sorted(rule_ids)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _finding_from_dict(data: Dict[str, object]) -> Finding:
    return Finding(
        path=str(data["path"]),
        line=int(data["line"]),  # type: ignore[arg-type]
        rule_id=str(data["rule"]),
        message=str(data["message"]),
        waive_reason=(
            str(data["reason"]) if data.get("reason") is not None else None
        ),
    )


class LintCache:
    """One run's view of the on-disk cache file.

    Load with :meth:`load`, consult with :meth:`lookup`, record fresh
    results with :meth:`store`, and persist with :meth:`save` — saving
    writes only the entries touched this run, so paths that left the
    tree age out naturally.
    """

    def __init__(self, path: Path, key: str) -> None:
        self.path = Path(path)
        self.key = key
        self._entries: Dict[str, dict] = {}
        self._fresh: Dict[str, dict] = {}

    @classmethod
    def load(cls, path: Path, *, key: str) -> "LintCache":
        """Read the cache file; a stale key or version empties it."""
        cache = cls(path, key)
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if (
            not isinstance(data, dict)
            or data.get("version") != CACHE_VERSION
            or data.get("key") != key
        ):
            return cache
        entries = data.get("entries")
        if isinstance(entries, dict):
            cache._entries = entries
        return cache

    def lookup(
        self, rel_path: str, file_hash: str
    ) -> Optional[Tuple[List[Finding], List[Finding]]]:
        """Cached ``(active, waived)`` findings, or ``None`` on miss."""
        entry = self._entries.get(rel_path)
        if not isinstance(entry, dict) or entry.get("hash") != file_hash:
            return None
        try:
            active = [
                _finding_from_dict(f) for f in entry.get("findings", [])
            ]
            waived = [
                _finding_from_dict(f) for f in entry.get("waived", [])
            ]
        except (KeyError, TypeError, ValueError):
            return None
        self._fresh[rel_path] = entry
        return active, waived

    def store(
        self,
        rel_path: str,
        file_hash: str,
        active: Sequence[Finding],
        waived: Sequence[Finding],
    ) -> None:
        """Record one freshly linted file's post-waiver results."""
        self._fresh[rel_path] = {
            "hash": file_hash,
            "findings": [f.to_dict() for f in active],
            "waived": [f.to_dict() for f in waived],
        }

    def save(self) -> None:
        """Atomically persist the entries touched this run."""
        payload = {
            "version": CACHE_VERSION,
            "key": self.key,
            "entries": self._fresh,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, self.path)


__all__ = ["CACHE_VERSION", "LintCache", "cache_key", "content_hash"]
