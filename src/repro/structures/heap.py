"""A binary max-heap with explicit keys.

The top-k computation module (paper Figure 6) de-heaps grid cells in
descending ``maxscore`` order. Python's :mod:`heapq` is a min-heap over
naturally-ordered items; wrapping it everywhere with negated, tie-broken
tuples obscures the algorithm, so the heap used throughout the library
lives here with the exact interface the traversal needs:

- ``push(key, item)`` / ``pop() -> (key, item)`` in O(log n);
- ``peek_key()`` to test the paper's termination condition *"while next
  entry has key > q.top_score"* without removing the entry;
- ``drain()`` to collect the entries that remain after termination
  (the paper's lazy influence-list cleanup starts from those cells,
  Figure 9, line 14).

Keys may be any mutually-comparable values; ties are broken by insertion
order so heap behaviour is deterministic even when items themselves are
not comparable (grid cells are not).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple


class BinaryMaxHeap:
    """Array-backed binary max-heap keyed by an explicit sort key."""

    __slots__ = ("_entries", "_counter")

    def __init__(self) -> None:
        # Each entry is [key, seq, item]; seq gives FIFO tie-breaking and
        # keeps comparisons away from arbitrary item types.
        self._entries: List[List[Any]] = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, key: Any, item: Any) -> None:
        """Insert ``item`` with priority ``key`` in O(log n)."""
        self._counter += 1
        self._entries.append([key, -self._counter, item])
        self._sift_up(len(self._entries) - 1)

    def pop(self) -> Tuple[Any, Any]:
        """Remove and return ``(key, item)`` with the largest key.

        Raises:
            IndexError: if the heap is empty.
        """
        if not self._entries:
            raise IndexError("pop from an empty heap")
        entries = self._entries
        top = entries[0]
        last = entries.pop()
        if entries:
            entries[0] = last
            self._sift_down(0)
        return top[0], top[2]

    def peek_key(self) -> Any:
        """Return the largest key without removing its entry.

        Raises:
            IndexError: if the heap is empty.
        """
        if not self._entries:
            raise IndexError("peek on an empty heap")
        return self._entries[0][0]

    def peek_item(self) -> Any:
        """Return the item with the largest key without removing it."""
        if not self._entries:
            raise IndexError("peek on an empty heap")
        return self._entries[0][2]

    def drain(self) -> List[Any]:
        """Remove and return all remaining items (arbitrary order)."""
        items = [entry[2] for entry in self._entries]
        self._entries.clear()
        return items

    def items(self) -> Iterator[Any]:
        """Iterate over contained items without consuming them."""
        return (entry[2] for entry in self._entries)

    def _greater(self, a: List[Any], b: List[Any]) -> bool:
        return (a[0], a[1]) > (b[0], b[1])

    def _sift_up(self, index: int) -> None:
        entries = self._entries
        entry = entries[index]
        while index > 0:
            parent = (index - 1) >> 1
            if self._greater(entry, entries[parent]):
                entries[index] = entries[parent]
                index = parent
            else:
                break
        entries[index] = entry

    def _sift_down(self, index: int) -> None:
        entries = self._entries
        size = len(entries)
        entry = entries[index]
        while True:
            child = 2 * index + 1
            if child >= size:
                break
            right = child + 1
            if right < size and self._greater(entries[right], entries[child]):
                child = right
            if self._greater(entries[child], entry):
                entries[index] = entries[child]
                index = child
            else:
                break
        entries[index] = entry
