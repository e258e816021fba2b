"""Bounded FIFO queues between the eddy and its modules.

The paper's Figure 7 discussion hinges on queue behaviour: "all queues
between the eddy and the modules are finite in size", which is what produces
head-of-line blocking inside an encapsulated index join.  These queues model
that: a module consumes items from its input queue at its own service rate,
and producers can observe occupancy/backpressure.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, TypeVar

ItemT = TypeVar("ItemT")


class BoundedQueue(Generic[ItemT]):
    """A FIFO queue with a finite capacity.

    Attributes:
        capacity: maximum number of items the queue holds; ``None`` means
            unbounded (a module declared without a queue bound).
    """

    def __init__(self, capacity: int | None = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be at least 1 (or None for unbounded)")
        self.capacity = capacity
        self.name = name
        #: The queued items, oldest first.  Hot loops test it for emptiness
        #: or length without a call; only the methods below mutate it.
        self.items: deque[ItemT] = deque()
        #: Cumulative number of items ever enqueued (for statistics).
        self.total_enqueued = 0
        #: Number of enqueue attempts rejected because the queue was full.
        self.rejected = 0
        #: High-water mark of occupancy.
        self.max_occupancy = 0

    @property
    def is_full(self) -> bool:
        """True if no more items can be accepted."""
        return self.capacity is not None and len(self.items) >= self.capacity

    def offer(self, item: ItemT) -> bool:
        """Enqueue ``item`` if there is room; return whether it was accepted."""
        items = self.items
        if self.capacity is not None and len(items) >= self.capacity:
            self.rejected += 1
            return False
        items.append(item)
        self.total_enqueued += 1
        if len(items) > self.max_occupancy:
            self.max_occupancy = len(items)
        return True

    def pop(self) -> ItemT:
        """Dequeue the oldest item.

        Raises:
            IndexError: if the queue is empty.
        """
        return self.items.popleft()

    def peek(self) -> ItemT | None:
        """The oldest item without removing it, or None if empty."""
        return self.items[0] if self.items else None

    def clear(self) -> int:
        """Drop every queued item; return how many were dropped.

        Used when a dataflow is torn down (query retirement): items still
        waiting for service belong to a query that no longer exists.
        """
        dropped = len(self.items)
        self.items.clear()
        return dropped

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[ItemT]:
        return iter(self.items)

    def __repr__(self) -> str:
        cap = "∞" if self.capacity is None else str(self.capacity)
        return f"BoundedQueue({self.name or 'queue'}, {len(self.items)}/{cap})"
