import math

import numpy as np
import pytest

from latshift.moments import chunked_map, kahan_sum


def _term(i: int) -> float:
    return ((i * 2654435761) % 1000003) * 1e-7 - 0.05


def _block(lo: int, hi: int) -> np.ndarray:
    return np.array([_term(i) for i in range(lo, hi)])


class TestKahan:
    def test_matches_exact_summation(self):
        values = [_term(i) for i in range(10000)]
        assert kahan_sum(values) == pytest.approx(math.fsum(values), abs=1e-12)

    def test_compensates_cancellation(self):
        # 1 followed by many tiny terms that naive addition would drop
        assert kahan_sum([1.0] + [1e-17] * 1000) == pytest.approx(1.0 + 1e-14, rel=1e-12)


class TestChunkedReductions:
    def test_map_is_ordered(self):
        n = 5000
        assert chunked_map(_block, n, 64).tolist() == [_term(i) for i in range(n)]

    def test_sum_independent_of_chunk_boundaries_at_tolerance(self):
        # the reduction rounds correctly, so block boundaries cannot move it
        n = 3000
        a = kahan_sum(chunked_map(_block, n, 128).tolist())
        b = kahan_sum(chunked_map(_block, n, 1 << 20).tolist())
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            chunked_map(_block, -1, 64)
