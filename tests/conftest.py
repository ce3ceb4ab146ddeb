import pytest

from leadopt import molgraph


@pytest.fixture
def no_canon_leaves(monkeypatch):
    """A canonical-search leaf budget of zero: parsing or building any graph
    whose refined ranks tie raises CanonicalizationBudgetError. Molecules
    needed intact must be built before the fixture runs."""
    monkeypatch.setattr(molgraph, "_MAX_CANON_LEAVES", 0)
    # a text parsed earlier would come back from the cache, and a text
    # written earlier as a write-order twin, without a search
    forget_texts()
    yield
    forget_texts()


def forget_texts():
    molgraph._parse_interned.cache_clear()
    molgraph._WRITTEN.clear()
