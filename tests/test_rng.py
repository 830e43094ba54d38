import os
import time

import numpy as np
import pytest

from nn_oracle import stream_id_from_json
from smoothcert.rng import StreamId, _mix_part, map_streams


def test_same_stream_same_draws():
    a = StreamId(7, ("train", 3, 12)).generator().standard_normal(16)
    b = StreamId(7, ("train", 3, 12)).generator().standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_different_paths_differ():
    draws = {}
    for path in [(), ("init",), ("train", 0, 0), ("train", 0, 1),
                 ("train", 1, 0), ("certify", 0), ("certify", 1)]:
        key = tuple(StreamId(7, path).generator().integers(0, 2**63, 4))
        assert key not in draws.values(), f"collision for {path}"
        draws[path] = key


def test_different_master_seeds_differ():
    a = StreamId(0).generator().standard_normal(8)
    b = StreamId(1).generator().standard_normal(8)
    assert not np.allclose(a, b)


def test_string_and_int_parts_distinct():
    # "1" and 1 must map to different streams
    a = StreamId(3, ("1",)).generator().standard_normal(8)
    b = StreamId(3, (1,)).generator().standard_normal(8)
    assert not np.allclose(a, b)


def test_child_extends_path():
    assert StreamId(5).child("certify", 9).path == ("certify", 9)
    assert StreamId(5, ("a",)).child(2).path == ("a", 2)


def test_json_round_trip():
    s = StreamId(11, ("train", 2, 5))
    assert stream_id_from_json(s.as_json()) == s


def test_validation():
    with pytest.raises(ValueError):
        StreamId(-1)
    with pytest.raises(TypeError):
        StreamId(0, (1.5,))
    with pytest.raises(ValueError):
        StreamId(0, (-2,))


def test_validation_rejects_non_int_master_seed_and_bool_parts():
    with pytest.raises(TypeError):
        StreamId(1.5)
    with pytest.raises(TypeError):
        StreamId("7")
    with pytest.raises(TypeError):
        StreamId(True)
    with pytest.raises(TypeError):
        StreamId(0, (True,))
    with pytest.raises(TypeError):
        StreamId(0).child(False)
    with pytest.raises(ValueError):
        StreamId(np.int64(-3))


def test_numpy_integer_master_seed_is_normalized():
    s = StreamId(np.uint32(7), ("train",))
    assert s == StreamId(7, ("train",)) and type(s.master_seed) is int
    np.testing.assert_array_equal(s.generator().standard_normal(4),
                                  StreamId(7, ("train",)).generator().standard_normal(4))


# ------------------------------------------------- per-index Philox streams


def _philox(stream, i):
    """numpy's own Generator for index i of a stream (the oracle): Philox
    keyed by the stream's SeedSequence state, counter at (0, 0, 0, i)."""
    entropy = [stream.master_seed] + [_mix_part(p) for p in stream.path]
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    counter = np.array([0, 0, 0, i], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


MASTER_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5]  # 1, 1, 2 and 3 uint32 words
# with the master seed, key entropy shorter than, equal to and longer than
# SeedSequence's pool of 4 words (checked below)
PARENT_PATHS = [(), ("train",), ("train", 3), ("certify", 0, "estimation"),
                (2**40, "a", 0, "b", 2**33)]
INDICES = [0, 1, 17, 2**32 - 1, 2**32, 2**32 + 9, 2**40 + 3, 2**64 - 1]


@pytest.mark.parametrize("master", MASTER_SEEDS)
@pytest.mark.parametrize("path", PARENT_PATHS)
def test_child_seeds_match_numpy_seed_sequence(master, path):
    # each index's generator is numpy's Philox at that counter, keyed once
    # from the stream's SeedSequence; the in-place reset leaves no state over
    parent = StreamId(master, path)
    for gen, i in zip(parent.indexed_generators(INDICES), INDICES):
        want = _philox(parent, i)
        np.testing.assert_array_equal(gen.standard_normal((3, 5)),
                                      want.standard_normal((3, 5)))
        assert gen.uniform(0.0, 0.5) == want.uniform(0.0, 0.5)
        assert gen.integers(0, 2**63) == want.integers(0, 2**63)
        assert gen.integers(0, 2**31, dtype=np.uint32) == want.integers(
            0, 2**31, dtype=np.uint32)  # leaves half a uint64 buffered
        np.testing.assert_equal(gen.bit_generator.state, want.bit_generator.state)


def test_child_seeds_entropy_lengths_cover_the_pool():
    def words(value):
        return max(1, (value.bit_length() + 31) // 32)

    # SeedSequence entropy words of each parent stream's key
    lengths = [words(m) + sum(words(_mix_part(p)) for p in path)
               for m in MASTER_SEEDS for path in PARENT_PATHS]
    assert min(lengths) < 4 and 4 in lengths and max(lengths) > 4


def test_child_seeds_order_and_duplicates():
    # an index's draws do not depend on its position or on its neighbours
    parent = StreamId(3, ("train", 1))
    idx = np.array([5, 0, 5, 2**33, 1])
    draws = [gen.standard_normal(4) for gen in parent.indexed_generators(idx)]
    np.testing.assert_array_equal(draws[0], draws[2])
    for i, d in zip(idx, draws):
        (gen,) = parent.indexed_generators([i])
        np.testing.assert_array_equal(d, gen.standard_normal(4))
    assert len({tuple(d) for d in draws}) == 4


def test_child_seeds_validation():
    parent = StreamId(3)
    assert list(parent.indexed_generators([])) == []
    for bad, error in (([1, -1], ValueError), ([np.int64(-2)], ValueError),
                       ([1.5], TypeError), ([2.0], TypeError), ([True], TypeError),
                       (np.array([True]), TypeError), (["1"], TypeError),
                       ([2**64], OverflowError),
                       (np.zeros((2, 2), dtype=int), TypeError)):
        with pytest.raises(error):
            list(parent.indexed_generators(bad))


# ---------------------------------------------------------------- map_streams


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.mark.parametrize("cpus", [1, 8])
def test_map_streams_runs_every_item_after_a_failure(monkeypatch, cpus):
    # no item is cancelled, so one that waits on an earlier item is never
    # left waiting; the first failure in item order reaches the caller
    _set_cpus(monkeypatch, cpus)
    ran = []

    def item(i):
        ran.append(i)
        if i in (1, 3):
            raise KeyError(i)
        if i:
            time.sleep(0.2)  # so 5 is still queued when 1's error is seen
        return i

    with pytest.raises(KeyError) as exc:
        map_streams(item, range(6))
    assert exc.value.args == (1,)
    assert sorted(ran) == (list(range(6)) if cpus > 1 else [0, 1])
