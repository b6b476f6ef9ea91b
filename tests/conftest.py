import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """Fail a test that ends with a live multiprocessing child: a run must
    shut its worker pool down before it returns or raises."""
    yield
    left = multiprocessing.active_children()
    assert left == [], f"processes left running: {left}"
