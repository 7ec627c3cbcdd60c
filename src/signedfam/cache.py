"""JSON-backed cache of solver results, keyed by instance and search mode.

Keys are "n,k,l,target,pruning".  Each entry stores the best known value
with its status and a timestamp.  answer is the one rule for which
entry serves a solve request: the exact entry of its own key, and for a
pruned m request, failing that, the exact "m,unpruned" entry.  An
exact m value does not depend on the search mode, and m results were
stored only as unpruned until m solves were shift-pruned, so those
entries keep serving.  An unpruned request, the independent route,
reads only its own key, and so does every g request.  Timed-out entries
are lower bounds and may be upgraded by a later larger value or by an
exact result; exact entries are never downgraded.  This is the program's only store of
solve results.  A cache file is corrupt when it is not a JSON object or
holds an entry whose value is not a non-negative integer or whose status
is neither exact nor a timeout; it is moved aside to "<path>.corrupt"
and rebuilt from scratch with a warning rather than failing.  A path
that cannot be read, such as a directory, is not corrupt: its OSError
propagates and the path is left as it is.  A save encodes the entries
as compact JSON with sorted keys, writes it to a temporary file in one
write and renames that file into place, so an interrupted save leaves
the previous file intact.  Files saved indented load the same.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from typing import Optional

from .solver import STATUS_EXACT, STATUS_TIMEOUT


def cache_key(n: int, k: int, l: int, target: str, pruning: bool) -> str:
    return f"{n},{k},{l},{target},{'pruned' if pruning else 'unpruned'}"


def improves(value: int, status: str, old_value: int, old_status: str) -> bool:
    """Upgrade rule: an exact result is final; a lower bound is replaced
    by any exact result or by a larger lower bound."""
    return old_status != STATUS_EXACT and (status == STATUS_EXACT or value > old_value)


class ResultCache:
    """Load-modify-save mapping of solve results."""

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("cache root is not an object")
            for key, entry in data.items():
                value = entry.get("value") if isinstance(entry, dict) else None
                if (
                    type(value) is not int
                    or value < 0
                    or entry.get("status") not in (STATUS_EXACT, STATUS_TIMEOUT)
                ):
                    raise ValueError(f"malformed entry for {key!r}")
            self.entries = data
        except FileNotFoundError:
            self.entries = {}
        except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError too
            try:
                os.replace(self.path, self.path + ".corrupt")
                kept = f"moved to {self.path}.corrupt"
            except OSError as move_exc:
                kept = f"could not be moved aside ({move_exc})"
            warnings.warn(f"result cache at {self.path} is corrupt ({exc}); {kept}; rebuilding")
            self.entries = {}

    def get(self, key: str) -> Optional[dict]:
        return self.entries.get(key)

    def answer(self, n: int, k: int, l: int, target: str, pruning: bool) -> Optional[dict]:
        """The exact entry that answers a solve request, or None: its own key first."""
        keys = [cache_key(n, k, l, target, pruning)]
        if target == "m" and pruning:
            keys.append(cache_key(n, k, l, target, False))
        found = (self.get(key) for key in keys)
        return next((e for e in found if e and e["status"] == STATUS_EXACT), None)

    def put(self, key: str, value: int, status: str) -> bool:
        """Record a result by the rule of improves; True when the entry changed."""
        old = self.entries.get(key)
        if old is not None and not improves(value, status, old["value"], old["status"]):
            return False
        self.entries[key] = {
            "value": value,
            "status": status,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        return True

    def save(self) -> None:
        # a sibling file, so the rename stays on one file system
        tmp = f"{self.path}.{os.getpid()}.tmp"
        text = json.dumps(self.entries, sort_keys=True) + "\n"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
