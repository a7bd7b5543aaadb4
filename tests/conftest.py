import pytest

from degenq import reps


@pytest.fixture(autouse=True)
def cold_setups():
    """Each test starts from an empty set-up store, so that nothing built
    under an earlier test's patches reaches it."""
    reps.clear_setups()
