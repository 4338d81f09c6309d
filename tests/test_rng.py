"""Drop path's keep table: SplitMix64's known answers, a row that is a pure
function of (run key, epoch, item key, site), and keep shares that
converge to 1 - rate."""
import numpy as np
import pytest

from vivqa.rng import _GOLDEN, keep_table, mix64

RATES = np.repeat([0.0, 0.15, 0.3], 2)      # a 3-block ramp's six sites


@pytest.mark.filterwarnings("error")
def test_mix64_gives_splitmix64s_reference_outputs():
    """SplitMix64 seeded with 0: its n-th output is mix64(n * golden).  Run
    with warnings as errors, since uint64 scalar products warn on overflow."""
    out = mix64(np.arange(1, 4, dtype=np.uint64) * _GOLDEN)
    assert [int(v) for v in out] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                     0x06C45D188009454F]
    keep_table(2**64 - 1, 10**6, [0, 2**63, 2**64 - 1], RATES)


def test_an_items_row_is_the_same_in_any_batch_at_any_position():
    r = np.random.default_rng(0)
    keys = r.integers(0, 2**64, size=17, dtype=np.uint64)
    alone = np.concatenate([keep_table(99, 3, keys[i:i + 1], RATES) for i in range(17)])
    assert alone.tobytes() != keep_table(99, 4, keys, RATES).tobytes()     # the epoch counts
    assert alone.tobytes() != keep_table(98, 3, keys, RATES).tobytes()     # so does the run
    for size in (2, 5, 16, 17):
        order = r.permutation(17)[:size]
        table = keep_table(99, 3, keys[order], RATES)
        assert table.tobytes() == alone[order].tobytes(), size


def test_keep_share_per_site_converges_to_one_minus_rate():
    """Over 10^5 ids each site keeps 1 - rate of its items, within five
    standard errors; two sites, and one site in two epochs, keep
    independently."""
    n, rates = 100_000, np.array([0.0, 0.1, 0.3, 0.5, 0.9])
    ids = np.arange(n, dtype=np.uint64)
    kept = keep_table(7, 0, ids, rates) > 0
    p = 1.0 - rates
    assert np.all(np.abs(kept.mean(axis=0) - p) <= 5 * np.sqrt(p * (1 - p) / n) + 1e-12)
    both = [(kept[:, 2] & kept[:, 3]).mean(),
            (kept[:, 3] & (keep_table(7, 1, ids, rates)[:, 3] > 0)).mean()]
    assert np.all(np.abs(np.array(both) - np.array([0.35, 0.25])) < 0.01)
    np.testing.assert_array_equal(np.unique(keep_table(7, 0, ids, rates)[:, 2]),
                                  [0.0, 1.0 / 0.7])
