"""Content-addressed on-disk cache of :class:`MissionResult` objects.

Layout::

    <root>/<fingerprint[:16]>/<config_key>.pkl

One directory per code fingerprint: editing any source file under
``repro`` moves the fingerprint, so stale results are never *read* — they
are simply orphaned under the old directory (``prune`` deletes them).

Entries are pickled envelopes carrying their own key and fingerprint so a
mis-filed or truncated file is detected on read; corrupt entries are
*quarantined* — renamed to ``<key>.pkl.corrupt`` so the evidence survives
for post-mortem — counted in :meth:`ResultCache.stats`, and treated as
misses.  Writes go through a temp file and ``os.replace`` so concurrent
workers and interrupted runs can never publish a half-written entry.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from pathlib import Path

from repro.core.cosim import MissionResult
from repro.sweep.fingerprint import code_fingerprint

CACHE_FORMAT = "rose-sweep-cache/1"

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_SWEEP_CACHE_DIR`` or ``~/.cache/rose-repro/sweeps``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "rose-repro" / "sweeps"


class ResultCache:
    """Mission results keyed by config hash, scoped to one code fingerprint."""

    def __init__(self, root: str | Path, fingerprint: str | None = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    def _dir(self) -> Path:
        return self.root / self.fingerprint[:16]

    def _path(self, key: str) -> Path:
        return self._dir() / f"{key}.pkl"

    # ------------------------------------------------------------------
    def get(self, key: str) -> MissionResult | None:
        """The cached result under ``key`` (a config's :func:`config_key`),
        or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
            if (
                envelope.get("format") != CACHE_FORMAT
                or envelope.get("key") != key
                or envelope.get("fingerprint") != self.fingerprint
            ):
                raise ValueError("cache envelope mismatch")
            result = envelope["result"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated, unreadable, or mis-filed: quarantine the file so
            # the evidence survives for post-mortem, then recompute.  The
            # rename also vacates the key, so the recomputed result's
            # ``put`` publishes cleanly.
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:
                path.unlink(missing_ok=True)
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: MissionResult) -> Path:
        """Atomically store ``result`` under ``key`` (its config's
        :func:`config_key`)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "format": CACHE_FORMAT,
            "key": key,
            "fingerprint": self.fingerprint,
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        self.stores += 1
        return path

    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Delete entries from other code fingerprints; returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        keep = self._dir().name
        for child in self.root.iterdir():
            if child.is_dir() and child.name != keep:
                removed += sum(1 for _ in child.glob("*.pkl"))
                shutil.rmtree(child, ignore_errors=True)
        return removed

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }
