"""Shared test setup."""

import pytest

from lseq import arith


@pytest.fixture(autouse=True)
def _empty_primality_memo():
    """Start and end every test with an empty is_prime memo, so that a test
    that replaces a primality stage (_l_form_proof, _l_form_reducer, ...) is
    never served a verdict computed without its replacement."""
    arith._seed_free_stages.cache_clear()
    yield
    arith._seed_free_stages.cache_clear()
