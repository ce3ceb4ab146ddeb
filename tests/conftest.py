import pytest

from leadopt import molgraph


@pytest.fixture
def no_canon_leaves(monkeypatch):
    """A canonical-search leaf budget of zero: parsing or building any graph
    whose refined ranks tie raises CanonicalizationBudgetError. Molecules
    needed intact must be built before the fixture runs."""
    monkeypatch.setattr(molgraph, "_MAX_CANON_LEAVES", 0)
    # a text parsed earlier would come back from the cache without a search
    molgraph._parse_interned.cache_clear()
    yield
    molgraph._parse_interned.cache_clear()
