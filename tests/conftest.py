"""Checks every test in this directory is held to."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert left == [], f"child processes still running after the test: {left}"
