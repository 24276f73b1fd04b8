"""Size banding in ``Partitioner.partition``: the group budget, the bands, the no-op case.

``partition`` asks the subclass's token grouping (``_group``) for
``n // B`` groups and splits each by set-size band, so the TGM row count
never exceeds ``n``; every band is one size interval; a corpus with one
set size is left exactly as ``_group`` made it; and L2P's own levels stay
unbanded.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import LES3, Dataset, TokenGroupMatrix
from repro.core.persistence import save_engine
from repro.learn import L2PPartitioner
from repro.partitioning import (
    MinTokenPartitioner,
    ParAPartitioner,
    ParCPartitioner,
    ParDPartitioner,
    ParGPartitioner,
    RandomPartitioner,
)
from repro.partitioning.base import MAX_SIZE_BANDS, size_band_cuts


def small_l2p() -> L2PPartitioner:
    return L2PPartitioner(pairs_per_model=300, epochs=1, initial_groups=2, min_group_size=4, seed=0)


PARTITIONERS = [
    RandomPartitioner,
    MinTokenPartitioner,
    lambda: ParCPartitioner(seed=0, max_passes=2),
    lambda: ParDPartitioner(seed=0),
    lambda: ParAPartitioner(seed=0),
    lambda: ParGPartitioner(k=3, seed=0),
    small_l2p,
]
IDS = ["random", "mintoken", "par_c", "par_d", "par_a", "par_g", "l2p"]


def lists_of_sizes(sizes, vocabulary=60, seed=0):
    rng = random.Random(seed)
    return [[f"t{t}" for t in rng.sample(range(vocabulary), size)] for size in sizes]


@pytest.fixture(scope="module")
def spread():
    """Set sizes 1..30, skewed small like the Zipf corpora."""
    rng = random.Random(5)
    sizes = [min(int(rng.paretovariate(1.2)), 30) for _ in range(150)]
    return Dataset.from_token_lists(lists_of_sizes(sizes))


@pytest.fixture(scope="module")
def single_size():
    return Dataset.from_token_lists(lists_of_sizes([7] * 90, seed=1))


def sizes_of(dataset):
    return np.array([len(record) for record in dataset.records])


class TestSizeBandCuts:
    def test_one_size_is_one_band(self):
        assert size_band_cuts(np.full(50, 4), 6) == []

    def test_every_band_holds_its_share(self):
        rng = np.random.default_rng(0)
        for max_bands in (2, 3, 6):
            sizes = rng.zipf(1.6, 500).clip(1, 80)
            cuts = size_band_cuts(sizes, max_bands)
            assert len(cuts) + 1 <= max_bands
            held = np.bincount(np.searchsorted(cuts, sizes), minlength=len(cuts) + 1)
            assert held.min() >= len(sizes) / max_bands

    def test_cuts_sit_at_the_quantiles(self):
        sizes = np.repeat([1, 2, 3, 4, 5, 6], 10)
        assert size_band_cuts(sizes, 6) == [1, 2, 3, 4, 5]
        assert size_band_cuts(sizes, 3) == [2, 4]

    def test_a_short_tail_joins_the_last_band(self):
        # 7 + 7 + 3 records, a share is 17 / 3: the 3 largest cannot stand alone.
        sizes = np.array([1] * 7 + [2] * 7 + [3] * 3)
        assert size_band_cuts(sizes, 3) == [1]


@pytest.mark.parametrize("make", PARTITIONERS, ids=IDS)
class TestBanding:
    @pytest.mark.parametrize("num_groups", [1, 4, 13])
    def test_group_budget_and_cover(self, spread, make, num_groups):
        partition = make().partition(spread, num_groups)
        assert partition.num_groups <= num_groups
        assert partition.covers(len(spread))

    def test_each_group_is_one_band_of_one_token_group(self, spread, make):
        num_groups = 13
        sizes = sizes_of(spread)
        cuts = size_band_cuts(sizes, min(MAX_SIZE_BANDS, num_groups))
        assert len(cuts) >= 2  # the fixture really is banded
        band_of = np.searchsorted(cuts, sizes)
        token_group_of = {
            member: token_group
            for token_group, members in enumerate(
                make()._group(spread, num_groups // (len(cuts) + 1)).groups
            )
            for member in members
        }
        for group in make().partition(spread, num_groups).groups:
            assert len({int(band_of[member]) for member in group}) == 1
            assert len({token_group_of[member] for member in group}) == 1

    def test_single_size_corpus_is_left_as_grouped(self, single_size, make):
        assert make().partition(single_size, 6).groups == make()._group(single_size, 6).groups


def test_single_size_corpus_saves_the_same_groups_json(single_size, tmp_path):
    """A one-size corpus (the clustered workloads) saves byte-identical groups."""
    banded = LES3.build(single_size, num_groups=6, partitioner=small_l2p())
    grouped = small_l2p()._group(single_size, 6).groups
    unbanded = LES3(single_size, TokenGroupMatrix(single_size, grouped))
    save_engine(banded, tmp_path / "banded")
    save_engine(unbanded, tmp_path / "unbanded")
    assert (tmp_path / "banded" / "groups.json").read_bytes() == (
        tmp_path / "unbanded" / "groups.json"
    ).read_bytes()


def test_l2p_levels_are_unbanded(spread):
    l2p = small_l2p()
    partition = l2p.partition(spread, 13)
    bands = len(size_band_cuts(sizes_of(spread), MAX_SIZE_BANDS)) + 1
    assert l2p.level_partitions_[0].groups == MinTokenPartitioner()._group(spread, 2).groups
    assert l2p.level_partitions_[-1].num_groups == 13 // bands
    assert partition.num_groups > l2p.level_partitions_[-1].num_groups
