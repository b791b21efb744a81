import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scene4d.rng import SplitMix64, derive_seed

_GOLDEN_INV = pow(0x9E3779B97F4A7C15, -1, 1 << 64)  # the splitmix64 step is odd


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_known_reference_values():
    # frozen from this implementation; guards against accidental edits
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_uniform_range_and_array_parity():
    r1 = SplitMix64(5)
    r2 = SplitMix64(5)
    xs = np.array([r1.uniform() for _ in range(1000)])
    assert np.array_equal(xs, r2.uniform_array(1000))
    assert xs.min() >= 0.0 and xs.max() < 1.0


def test_normal_array_parity_and_moments():
    r1 = SplitMix64(11)
    r2 = SplitMix64(11)
    a = np.array([r1.normal(0.0, 0.02) for _ in range(4000)])
    b = r2.normal_array(4000, 0.0, 0.02)
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 2e-3
    assert abs(a.std() - 0.02) < 2e-3


def test_sample_indices_distinct_sorted_in_range():
    r = SplitMix64(99)
    idx = r.sample_indices(100, 40)
    assert len(set(idx)) == 40
    assert idx == sorted(idx)
    assert all(0 <= i < 100 for i in idx)


def test_sample_indices_full_draw_is_permutation_of_range():
    idx = SplitMix64(4).sample_indices(17, 17)
    assert idx == list(range(17))


def test_derive_seed_changes_with_tags():
    s = {derive_seed(7), derive_seed(7, 1), derive_seed(7, 2), derive_seed(7, 1, 2)}
    assert len(s) == 4


# ---------------------------------------------------------------------------
# sample_indices: a sparse pool, equal to the old list-pool body

def reference_sample_indices(self, n, k):
    """SplitMix64.sample_indices before its pool became a dict, kept
    verbatim: one randbelow per step and an O(n) list pool."""
    if k > n:
        raise ValueError("cannot sample more indices than available")
    pool = list(range(n))
    picked = []
    for i in range(k):
        j = i + self.randbelow(n - i)
        pool[i], pool[j] = pool[j], pool[i]
        picked.append(pool[i])
    picked.sort()
    return picked


def dict_pool_sample_indices(self, n, k):
    """The same scalar draws with a dict pool, for n too large for a list."""
    pool = {}
    picked = []
    for i in range(k):
        j = i + self.randbelow(n - i)
        pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
        picked.append(pool[i])
    picked.sort()
    return picked


def _draws(before, after):
    return ((after - before) * _GOLDEN_INV) & ((1 << 64) - 1)


_N_AND_K = st.integers(1, 3000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n) | st.just(n)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 64) - 1), _N_AND_K)
@example(0, (1, 1))
@example(7, (2500, 2500))
@example(9, (40, 0))
def test_sample_indices_equals_reference_picks_and_end_state(seed, n_and_k):
    n, k = n_and_k
    new, ref = SplitMix64(seed), SplitMix64(seed)
    assert new.sample_indices(n, k) == reference_sample_indices(ref, n, k)
    assert new._state == ref._state


def test_sample_indices_at_bench_size_equals_reference():
    new, ref = SplitMix64(2026), SplitMix64(2026)
    assert new.sample_indices(234732, 20000) == reference_sample_indices(ref, 234732, 20000)
    assert new._state == ref._state
    assert _draws(2026, new._state) == 20000


@pytest.mark.parametrize("seed", range(12))
def test_sample_indices_rejection_path_equals_scalar_draws(seed):
    # for n - i just above 2**63 randbelow rejects about half of its draws;
    # such an n is far too large for the list-pool reference
    n = (1 << 63) + 1000 + seed
    new, ref = SplitMix64(seed), SplitMix64(seed)
    picks = new.sample_indices(n, 6)
    assert picks == dict_pool_sample_indices(ref, n, 6)
    assert new._state == ref._state
    assert len(set(picks)) == 6 and all(0 <= p < n for p in picks)
    assert _draws(seed, new._state) > 6


def test_dict_pool_reference_equals_list_pool():
    for seed, n, k in [(1, 50, 50), (2, 1000, 300), (3, 1, 1)]:
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert dict_pool_sample_indices(a, n, k) == reference_sample_indices(b, n, k)
        assert a._state == b._state
