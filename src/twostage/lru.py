"""A bounded, thread-safe memo table for the process-global caches."""

import threading
from collections import OrderedDict


class LruCache:
    """Keeps the ``bound`` most recently used entries, dropping older ones."""

    def __init__(self, bound: int):
        self.bound = bound
        self._data = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def get_or_make(self, key, make):
        """The value cached for ``key``, else ``make()``, stored. ``make``
        runs unlocked, so two threads may both run it: it must be pure."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
        value = make()
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.bound:
                self._data.popitem(last=False)
        return value
