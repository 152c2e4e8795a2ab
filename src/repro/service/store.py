"""Content-addressed plugin payloads and scan results.

The daemon never trusts a client-supplied name as identity: every
submission is hashed into a **plugin digest** (SHA-256 over the sorted
``(path, source)`` pairs), the payload is persisted under that digest
so a queued job survives a daemon restart, and finished reports are
stored under ``(digest, analyzer fingerprint)``.  Identical
resubmissions — same bytes, same analyzer configuration — therefore
never reach the queue at all: the stored report is served instantly.

Layout (all writes are atomic temp-file + ``os.replace``, so any number
of worker threads/processes can share one store)::

    root/plugins/<aa>/<digest>.json    {"name", "version", "files"}
    root/results/<aa>/<key>.json       the finished report document
    root/manifests/<aa>/<key>.json     per-file digest manifest of a scan
    root/lineage/<aa>/<name-key>.json  digest sequence per plugin lineage

The manifest/lineage pair is what makes rescans diff-aware: a
resubmission whose digest differs is matched to the *nearest prior scan
of the same plugin lineage* (the most recent digest recorded under the
submitted plugin's name), and its per-file digest manifest tells the
analyzer which files actually changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional

from ..plugin import Plugin


def plugin_digest(plugin: Plugin) -> str:
    """Content identity of a submission: file paths + bytes only.

    Name and version are deliberately excluded — two marketplaces
    uploading the same bytes under different slugs get one analysis.
    """
    hasher = hashlib.sha256()
    for path, source in plugin.iter_files():
        hasher.update(path.encode("utf-8", "replace"))
        hasher.update(b"\x00")
        hasher.update(source.encode("utf-8", "replace"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class ResultStore:
    """Digest-keyed payload + report store under one directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._plugins_dir = os.path.join(root, "plugins")
        self._results_dir = os.path.join(root, "results")
        self._manifests_dir = os.path.join(root, "manifests")
        self._lineage_dir = os.path.join(root, "lineage")
        os.makedirs(self._plugins_dir, exist_ok=True)
        os.makedirs(self._results_dir, exist_ok=True)
        os.makedirs(self._manifests_dir, exist_ok=True)
        os.makedirs(self._lineage_dir, exist_ok=True)

    # -- plugin payloads ---------------------------------------------------

    def put_plugin(self, plugin: Plugin) -> str:
        """Persist the submission payload; returns its digest."""
        digest = plugin_digest(plugin)
        path = self._shard_path(self._plugins_dir, digest)
        if not os.path.exists(path):
            self._write_json(
                path,
                {
                    "name": plugin.name,
                    "version": plugin.version,
                    "files": dict(plugin.files),
                },
            )
        return digest

    def load_plugin(self, digest: str) -> Optional[Plugin]:
        document = self._read_json(self._shard_path(self._plugins_dir, digest))
        if document is None:
            return None
        return Plugin(
            name=document.get("name", digest[:12]),
            version=document.get("version", ""),
            files=dict(document.get("files", {})),
        )

    # -- finished reports --------------------------------------------------

    @staticmethod
    def result_key(digest: str, fingerprint: str) -> str:
        """Report identity: plugin bytes + analyzer configuration.

        Always hashed — an earlier version returned the raw digest when
        ``fingerprint`` was empty, which put unfingerprinted results in
        a namespace that could collide with hashed keys.  Legacy raw
        paths are migrated lazily by :meth:`get_result`.
        """
        return hashlib.sha256(
            f"{digest}:{fingerprint}".encode("utf-8")
        ).hexdigest()

    def put_result(
        self, digest: str, fingerprint: str, document: Dict[str, object]
    ) -> None:
        path = self._shard_path(
            self._results_dir, self.result_key(digest, fingerprint)
        )
        self._write_json(path, document)

    def get_result(
        self, digest: str, fingerprint: str
    ) -> Optional[Dict[str, object]]:
        document = self._read_json(
            self._shard_path(self._results_dir, self.result_key(digest, fingerprint))
        )
        if document is not None:
            return document
        if not fingerprint:
            return self._migrate_legacy_result(digest)
        return None

    def _migrate_legacy_result(self, digest: str) -> Optional[Dict[str, object]]:
        """Serve and move a pre-fix raw-digest result to its hashed key."""
        legacy_path = self._shard_path(self._results_dir, digest)
        document = self._read_json(legacy_path)
        if document is None:
            return None
        self.put_result(digest, "", document)
        try:
            os.remove(legacy_path)
        except OSError:  # pragma: no cover - concurrent migration
            pass
        return document

    # -- per-file digest manifests (incremental rescans) -------------------

    def put_manifest(
        self, digest: str, fingerprint: str, manifest: Dict[str, object]
    ) -> None:
        """Persist the per-file digest manifest of a finished scan,
        keyed like the result it belongs to."""
        path = self._shard_path(
            self._manifests_dir, self.result_key(digest, fingerprint)
        )
        self._write_json(path, manifest)

    def get_manifest(
        self, digest: str, fingerprint: str
    ) -> Optional[Dict[str, object]]:
        return self._read_json(
            self._shard_path(
                self._manifests_dir, self.result_key(digest, fingerprint)
            )
        )

    # -- scan lineage ------------------------------------------------------

    @staticmethod
    def lineage_key(name: str) -> str:
        """Lineage identity: the (client-supplied) plugin name.  Hashed
        so arbitrary slugs map to safe file names."""
        return hashlib.sha256(("lineage:" + name).encode("utf-8")).hexdigest()

    def record_lineage(self, name: str, digest: str) -> None:
        """Append ``digest`` to the scan lineage of plugin ``name``.

        A digest already present is moved to the end (most recent); the
        list is the submission order the store observed.
        """
        path = self._shard_path(self._lineage_dir, self.lineage_key(name))
        document = self._read_json(path) or {"name": name, "digests": []}
        digests = [d for d in document.get("digests", []) if d != digest]
        digests.append(digest)
        document["name"] = name
        document["digests"] = digests
        self._write_json(path, document)

    def lineage(self, name: str) -> List[str]:
        """Digest sequence recorded for ``name``, oldest first."""
        path = self._shard_path(self._lineage_dir, self.lineage_key(name))
        document = self._read_json(path)
        if document is None:
            return []
        return list(document.get("digests", []))

    def latest_manifest(
        self, name: str, fingerprint: str, exclude_digest: str = ""
    ) -> Optional[Dict[str, object]]:
        """The nearest prior scan manifest of the plugin lineage: the
        most recent digest recorded under ``name`` (other than the one
        being rescanned) that has a stored manifest."""
        for digest in reversed(self.lineage(name)):
            if digest == exclude_digest:
                continue
            manifest = self.get_manifest(digest, fingerprint)
            if manifest is not None:
                return manifest
        return None

    def result_count(self) -> int:
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self._results_dir):
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count

    # -- I/O helpers -------------------------------------------------------

    @staticmethod
    def _shard_path(root: str, key: str) -> str:
        return os.path.join(root, key[:2], key + ".json")

    @staticmethod
    def _write_json(path: str, document: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(document))
            os.replace(tmp_path, path)
        except Exception:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise

    @staticmethod
    def _read_json(path: str) -> Optional[Dict[str, object]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # truncated/corrupt object: treat as absent so the job is
            # simply re-analyzed; the rewrite replaces the bad file
            try:
                os.remove(path)
            except OSError:
                pass
            return None
