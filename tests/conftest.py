"""Every test starts from empty process-global caches, so no test depends on
what another one left behind, and each passes alone or in any order."""

import pytest

from twostage import mde, scheme


@pytest.fixture(autouse=True)
def _empty_caches():
    scheme.clear_codebook_cache()
    mde.clear_probability_cache()
