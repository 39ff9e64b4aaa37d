from __future__ import annotations

import threading
import time

import pytest

from psmith.readonly import map_in_order


def test_map_in_order_keeps_item_order_when_items_finish_in_reverse():
    items = list(range(4))
    finished = {i: threading.Event() for i in items}
    order = []

    def fn(i):
        # each item waits for the one after it, so the last finishes first
        if i + 1 in finished:
            assert finished[i + 1].wait(10)
        order.append(i)
        finished[i].set()
        return i * 10

    assert map_in_order(fn, items, threads=len(items)) == [0, 10, 20, 30]
    assert order == [3, 2, 1, 0]


def test_map_in_order_raises_the_first_failing_item_after_every_call_finished():
    done = {i: threading.Event() for i in range(4)}
    finished = []

    def fn(i):
        try:
            if i == 1:  # fails after item 2 has failed
                assert done[2].wait(10)
                raise KeyError("one")
            if i == 2:
                raise ValueError("two")
            if i == 3:  # still running when item 1 fails
                assert done[1].wait(10)
                time.sleep(0.05)
            return i
        finally:
            finished.append(i)
            done[i].set()

    with pytest.raises(KeyError, match="one"):
        map_in_order(fn, list(range(4)), threads=4)
    assert sorted(finished) == [0, 1, 2, 3]


@pytest.mark.parametrize("items", [[1, 2, 3], [1]])
def test_map_in_order_runs_inline_on_one_thread_or_one_item(items):
    caller = threading.get_ident()
    threads = 1 if len(items) > 1 else 4
    assert map_in_order(lambda _: threading.get_ident(), items, threads) == \
        [caller] * len(items)


def test_map_in_order_of_nothing_is_empty():
    assert map_in_order(lambda item: item, [], threads=1) == []
    assert map_in_order(lambda item: item, [], threads=4) == []
