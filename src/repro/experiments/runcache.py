"""Content-addressed on-disk cache of simulation results.

Every run is identified by a stable SHA-256 over the *values* of its
:class:`~repro.config.SystemConfig`, its program list, and a code-version
salt hashed from the simulator's own sources — so editing the model
invalidates the whole cache automatically while editing the experiment
drivers (which only orchestrate runs) does not.

Layout under the cache root (default ``.repro-cache/``)::

    <root>/<key[:2]>/<key>.jsonl   two JSONL records: header, result payload
    <root>/quarantine/             entries that failed to load

Writes are atomic (temp file + ``os.replace``), so a parallel sweep whose
workers race on the same key can never leave a torn entry.  Loads are
corruption-tolerant: an entry that is truncated, unparsable, or written by
a different cache-format version is moved to ``quarantine/`` and reported
as a miss, which makes the caller recompute it — a bad entry can never
crash a sweep or poison its results.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.config import SystemConfig
from repro.serialize import canonical_dumps
from repro.system import SimulationResult

#: On-disk entry format version; bump when the serialisation changes shape.
#: Entries written under another version are quarantined at load.
CACHE_FORMAT = 1

#: Default cache root, relative to the invoking process's working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Top-level ``repro`` subpackages excluded from the code-version salt:
#: experiment drivers only *orchestrate* runs (every model parameter they
#: control travels inside SystemConfig, which is part of the key), so
#: editing them must not throw away valid simulation results.
_SALT_EXCLUDE = frozenset({"experiments"})


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Hash of the simulator's source files (the cache-invalidation salt)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0] in _SALT_EXCLUDE:
            continue
        digest.update(str(relative).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def run_key(
    config: SystemConfig,
    programs: Sequence[str],
    *,
    salt: Optional[str] = None,
) -> str:
    """Content hash identifying one ``run_system(config, programs)`` call.

    Pinned to field *values*: two configs built independently (or derived
    via ``dataclasses.replace``) with equal fields produce the same key.
    """
    payload = {
        "format": CACHE_FORMAT,
        "salt": salt if salt is not None else code_salt(),
        "config": config.to_dict(),
        "programs": list(programs),
    }
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


@dataclass
class CacheStats:
    """Load/store accounting for one :class:`RunCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0


class RunCache:
    """Persistent result store keyed by :func:`run_key`."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.jsonl"

    # -- load ----------------------------------------------------------

    def load(self, key: str) -> Optional[SimulationResult]:
        """Return the cached result for ``key``, or None on miss.

        Any defect in the entry — truncation, corrupt JSON, format or salt
        mismatch, a payload that does not decode — quarantines the file and
        counts as a miss.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            result = self._parse_entry(data.decode("utf-8"), key)
        except Exception:
            self._quarantine(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def _parse_entry(self, text: str, key: str) -> SimulationResult:
        lines = text.splitlines()
        if len(lines) < 2:
            raise ValueError("truncated cache entry")
        header = json.loads(lines[0])
        if header.get("format") != CACHE_FORMAT:
            raise ValueError(f"cache format mismatch: {header.get('format')}")
        if header.get("key") != key:
            raise ValueError("cache entry key mismatch")
        if header.get("salt") != code_salt():
            raise ValueError("cache entry salt mismatch")
        digest = hashlib.sha256(lines[1].encode()).hexdigest()
        if header.get("payload_sha256") != digest:
            raise ValueError("cache payload checksum mismatch")
        return SimulationResult.from_dict(json.loads(lines[1]))

    # -- store ---------------------------------------------------------

    def store(self, key: str, result: SimulationResult) -> Path:
        """Write one entry atomically; concurrent writers cannot tear it."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = canonical_dumps(result.to_dict())
        header = {
            "format": CACHE_FORMAT,
            "key": key,
            "salt": code_salt(),
            "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        }
        body = canonical_dumps(header) + "\n" + payload + "\n"
        temp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        temp.write_text(body)
        os.replace(temp, path)
        self.stats.stores += 1
        return path

    # -- maintenance ---------------------------------------------------

    def entries(self) -> Iterator[Path]:
        """All live (non-quarantined) entry files.

        A root that does not exist yet holds none.  Raises
        ``NotADirectoryError`` when the root, or the nearest path above it
        that exists, is not a directory: no cache can live there.
        """
        if not self.root.is_dir():
            found = next(p for p in (self.root, *self.root.parents) if p.exists())
            if not found.is_dir():
                raise NotADirectoryError(
                    f"cache directory {self.root}: {found} is not a directory")
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == "quarantine":
                continue
            for path in sorted(shard.glob("*.jsonl")):
                yield path

    def quarantined(self) -> Iterator[Path]:
        yield from sorted(self.root.joinpath("quarantine").glob("*"))

    def summary(self) -> dict:
        """Stats for the ``cache`` CLI and the CI artifact."""
        paths = list(self.entries())
        return {
            "root": str(self.root),
            "entries": len(paths),
            "bytes": sum(p.stat().st_size for p in paths),
            "quarantined": len(list(self.quarantined())),
            "salt": code_salt(),
            "format": CACHE_FORMAT,
            "session": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "stores": self.stats.stores,
                "quarantined": self.stats.quarantined,
            },
        }

    def purge(self) -> int:
        """Delete every entry (quarantine included); return files removed."""
        removed = 0
        for path in list(self.entries()) + list(self.quarantined()):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed

    def _quarantine(self, path: Path) -> None:
        quarantine = self.root / "quarantine"
        # A cache defect must never take the sweep down.
        with contextlib.suppress(OSError):
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
            self.stats.quarantined += 1
