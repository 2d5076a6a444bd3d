import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest
from hypothesis import settings

from reciprocity_lab import tate

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def fresh_trace_memo():
    """Each test starts with no cached CommutatorTrace, so no count it
    makes depends on which tests ran before it."""
    tate._commutator_trace.cache_clear()
