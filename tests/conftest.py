"""Shared test setup."""

import pytest

from lseq import arith


@pytest.fixture(autouse=True)
def _empty_primality_memo():
    """Start and end every test with an empty is_prime memo, so that a test
    that replaces a primality stage (_l_form_proof, _block_factor, ...) or
    the L-form reducer (with n.__rmod__, builtin %, the reference the
    shift-add fold is compared with) is never served a verdict computed
    without its replacement."""
    arith._verdict_above_table.cache_clear()
    yield
    arith._verdict_above_table.cache_clear()
