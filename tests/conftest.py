import pytest
from hypothesis import settings

from efl.names import NameSupply

from helpers import Names

# No property test checks timing, and on a loaded machine any example can
# overrun Hypothesis' default 200 ms deadline; so no test has one.
settings.register_profile("efl", deadline=None)
settings.load_profile("efl")


@pytest.fixture
def supply() -> NameSupply:
    return NameSupply()


@pytest.fixture
def ns() -> Names:
    return Names()
