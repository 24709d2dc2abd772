import pytest

import cji.conjugate


@pytest.fixture
def cold_table_memo():
    """Empty precompute_table's process-wide memo, so that the next call of
    each key builds its columns."""
    cji.conjugate._table_memo.clear()
