"""The experiment runner's in-process dataset memo.

``repro.experiments.common.load_dataset`` generates each graph once per
process.  The memo belongs to the experiment runner alone: the serve
pool's path (``repro.api.load_dataset(cache=False)``) must keep
generating fresh graphs, or evicting one from the pool would not free it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.errors import GraphError
from repro.experiments import common
from repro.graph import datasets

NAME = "wikitalk-sim"


def test_repeated_call_returns_the_same_graph():
    first = common.load_dataset(NAME, tier="tiny", seed=7)
    again = common.load_dataset(NAME, tier="tiny", seed=7)
    assert again[0] is first[0]
    assert again[1] is first[1]


def test_memoized_graph_equals_a_fresh_one():
    graph, spec = common.load_dataset(NAME, tier="tiny", seed=11)
    fresh, fresh_spec = datasets.load_dataset(NAME, tier="tiny", seed=11)
    assert graph.digest == fresh.digest
    assert spec == fresh_spec


def test_key_is_the_resolved_scale():
    small, _ = common.load_dataset(NAME, tier="small", seed=7, scale_shift=-2)
    tiny, _ = common.load_dataset(NAME, tier="tiny", seed=7, scale_shift=2)
    assert small is tiny


def test_omitted_scale_shift_shares_the_zero_entry():
    omitted, _ = common.load_dataset(NAME, tier="tiny", seed=7)
    zero, _ = common.load_dataset(NAME, tier="tiny", seed=7, scale_shift=0)
    assert omitted is zero


def test_seeds_and_names_key_separate_entries():
    base, _ = common.load_dataset(NAME, tier="tiny", seed=7)
    assert common.load_dataset(NAME, tier="tiny", seed=8)[0] is not base
    other, _ = common.load_dataset("livejournal-sim", tier="tiny", seed=7)
    assert other is not base


def test_numpy_integer_seed_shares_the_int_entry():
    plain, _ = common.load_dataset(NAME, tier="tiny", seed=7)
    numpy_int, _ = common.load_dataset(NAME, tier="tiny", seed=np.int64(7))
    assert numpy_int is plain


def test_generator_seed_bypasses_the_memo():
    before = dict(common._DATASET_MEMO)
    a, _ = common.load_dataset(NAME, tier="tiny", seed=np.random.default_rng(7))
    b, _ = common.load_dataset(NAME, tier="tiny", seed=np.random.default_rng(7))
    assert a is not b
    assert a.digest == b.digest
    assert common._DATASET_MEMO == before


def test_unknown_tier_still_raises():
    with pytest.raises(GraphError, match="unknown tier"):
        common.load_dataset(NAME, tier="giant", seed=7)


def test_unknown_dataset_still_raises():
    with pytest.raises(GraphError, match="unknown dataset"):
        common.load_dataset("no-such-graph", tier="tiny", seed=7)


def test_serve_pool_path_is_not_memoized():
    memoized, _ = common.load_dataset(NAME, tier="tiny", seed=7)
    a, _ = api.load_dataset(NAME, tier="tiny", seed=7, cache=False)
    b, _ = api.load_dataset(NAME, tier="tiny", seed=7, cache=False)
    assert a is not b
    assert memoized is not a and memoized is not b
    assert a.digest == memoized.digest
