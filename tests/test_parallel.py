"""The spawn-safe parallel map behind every ``--jobs`` flag."""

import os
import time

import pytest

from repro.parallel import default_jobs, parallel_map


def _square(x):
    return x * x


def _pid_and_square(x):
    return os.getpid(), x * x


def _explode(x):
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x


def _logged(item):
    """Append one line per call to ``directory/index``; item 3 raises."""
    directory, index = item
    with open(os.path.join(directory, str(index)), "a") as fh:
        fh.write(f"{os.getpid()}\n")
    if index == 3:
        raise TypeError(f"fn's own TypeError on {index}")
    return index


def _slow(item):
    directory, index = item
    _logged((directory, index + 100))     # never raises
    time.sleep(0.3)
    return index


def _runs(directory, indices):
    counts = {}
    for index in indices:
        path = os.path.join(directory, str(index))
        counts[index] = (len(open(path).read().splitlines())
                         if os.path.exists(path) else 0)
    return counts


class TestSerial:
    def test_jobs_one_is_a_plain_loop(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_single_item_never_pools(self):
        pids = parallel_map(_pid_and_square, [5], jobs=8)
        assert pids == [(os.getpid(), 25)]

    def test_progress_fires_in_order(self):
        seen = []
        parallel_map(_square, [1, 2, 3], jobs=1,
                     progress=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 1), (1, 4), (2, 9)]

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []


class TestParallel:
    def test_results_in_input_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]

    def test_exceptions_propagate_first_by_input_order(self):
        with pytest.raises(ValueError, match="boom on 3"):
            parallel_map(_explode, [1, 2, 3, 4, 3], jobs=2)

    def test_unpicklable_fn_falls_back_to_serial(self):
        captured = []

        def closure(x):            # closures cannot cross spawn
            captured.append(x)
            return -x

        assert parallel_map(closure, [1, 2, 3], jobs=2) == [-1, -2, -3]
        assert captured == [1, 2, 3]    # really ran in this process

    def test_fn_type_error_propagates_and_nothing_reruns(self, tmp_path):
        items = [(str(tmp_path), i) for i in range(6)]
        with pytest.raises(TypeError, match="own TypeError on 3"):
            parallel_map(_logged, items, jobs=2)
        runs = _runs(str(tmp_path), range(6))
        assert runs[3] == 1
        assert all(n <= 1 for n in runs.values()), runs

    def test_unpicklable_item_falls_back_to_serial(self):
        items = [1, 2, lambda: 3]
        out = parallel_map(repr, items, jobs=2)
        assert out[:2] == ["1", "2"] and out[2].startswith("<function")

    def test_interrupt_cancels_queued_items(self, tmp_path):
        items = [(str(tmp_path), i) for i in range(10)]

        def interrupt(index, result):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            parallel_map(_slow, items, jobs=2, progress=interrupt)
        time.sleep(1.5)            # let already-queued items drain
        ran = sum(_runs(str(tmp_path), range(100, 110)).values())
        assert 1 <= ran < 10

    def test_serial_and_parallel_agree(self):
        items = list(range(12))
        assert (parallel_map(_square, items, jobs=1)
                == parallel_map(_square, items, jobs=3))


def test_default_jobs_positive():
    assert default_jobs() >= 1
