"""Worker-process tests: task order, warnings, and the inline fallback."""

import multiprocessing
import os
import warnings

import pytest

from submol.parallel import map_tasks


def _pid_and_square(x):
    return os.getpid(), x * x


def _warn(text):
    warnings.warn(text, UserWarning)
    return text


def test_results_come_back_in_task_order():
    results = map_tasks(_pid_and_square, [(x,) for x in range(6)], 2)
    assert [square for _, square in results] == [x * x for x in range(6)]
    assert {pid for pid, _ in results} != {os.getpid()}
    assert multiprocessing.active_children() == []


def test_warnings_are_issued_again_in_task_order():
    texts = [f"task {i}" for i in range(5)]
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert map_tasks(_warn, [(t,) for t in texts], workers) == texts
        assert [str(w.message) for w in caught] == texts


def test_an_error_filter_acts_in_the_worker():
    for workers in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="^a$"):
                map_tasks(_warn, [("a",), ("b",)], workers)
    assert multiprocessing.active_children() == []


def test_without_fork_the_tasks_run_inline(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    results = map_tasks(_pid_and_square, [(x,) for x in range(4)], 2)
    assert results == [(os.getpid(), x * x) for x in range(4)]
