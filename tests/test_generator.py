"""Unit tests for the operation generator."""

import random
from collections import Counter

import pytest

from repro.ycsb import OperationGenerator, OpKind, WorkloadSpec
from repro.ycsb.distributions import LatestChooser, make_chooser
from repro.ycsb.generator import Operation, make_key, make_value


def reference_operations(spec, seed):
    """The per-op ``rng.choices`` loop ``operations`` replaced: one
    ``choices`` call per kind, every key rendered and every value built
    afresh.  ``operations`` must yield this stream draw for draw."""
    rng = random.Random(seed)
    inserted = spec.record_count
    chooser = make_chooser(spec.request_distribution, max(1, spec.record_count))
    weighted = [
        (OpKind.READ, spec.read_proportion),
        (OpKind.UPDATE, spec.update_proportion),
        (OpKind.BLIND_WRITE, spec.blind_write_proportion),
        (OpKind.INSERT, spec.insert_proportion),
        (OpKind.SCAN, spec.scan_proportion),
        (OpKind.RMW, spec.rmw_proportion),
        (OpKind.DELETE, spec.delete_proportion),
    ]
    kinds = [kind for kind, p in weighted if p > 0]
    weights = [p for _, p in weighted if p > 0]
    for _ in range(spec.operation_count):
        kind = rng.choices(kinds, weights=weights)[0]
        if kind is OpKind.INSERT:
            key = make_key(inserted, spec.ordered_inserts)
            inserted += 1
            if isinstance(chooser, LatestChooser):
                chooser.grow(inserted)
            yield Operation(kind, key, make_value(rng, spec.value_bytes))
            continue
        key = make_key(chooser.next(rng), spec.ordered_inserts)
        if kind is OpKind.SCAN:
            length = rng.randint(spec.scan_length_min, spec.scan_length_max)
            yield Operation(kind, key, scan_length=length)
        elif kind in (OpKind.READ, OpKind.DELETE):
            yield Operation(kind, key)
        else:
            yield Operation(kind, key, make_value(rng, spec.value_bytes))


MIXES = {
    "read_write": dict(read_proportion=0.5, blind_write_proportion=0.5),
    "ycsb_a_rmw": dict(read_proportion=0.5, update_proportion=0.5),
    "ycsb_e": dict(scan_proportion=0.95, insert_proportion=0.05),
    "ycsb_f": dict(read_proportion=0.5, rmw_proportion=0.5),
    "everything": dict(
        read_proportion=0.3,
        update_proportion=0.1,
        blind_write_proportion=0.15,
        insert_proportion=0.15,
        scan_proportion=0.1,
        rmw_proportion=0.1,
        delete_proportion=0.1,
    ),
}


@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize(
    "distribution", ["uniform", "zipfian", "zipfian_clustered", "latest"]
)
def test_operations_match_the_per_op_choices_loop(distribution, mix):
    spec = WorkloadSpec(
        record_count=150,
        operation_count=400,
        request_distribution=distribution,
        value_bytes=24,
        scan_length_min=2,
        scan_length_max=9,
        **MIXES[mix],
    )
    for seed in range(5):
        expected = [
            (op.kind, op.key, op.value, op.scan_length)
            for op in reference_operations(spec, seed)
        ]
        actual = [
            (op.kind, op.key, op.value, op.scan_length)
            for op in OperationGenerator(spec, seed=seed).operations()
        ]
        assert actual == expected, (distribution, mix, seed)


def test_interned_values_equal_make_value():
    spec = WorkloadSpec(
        record_count=10, operation_count=2000, blind_write_proportion=1.0,
        value_bytes=33,
    )
    ops = list(OperationGenerator(spec, seed=4).operations())
    rng = random.Random(4)
    for op in ops:
        rng.random()  # the kind draw
        rng.randrange(10)  # the key draw
        assert op.value == make_value(rng, 33)
    # One object per fill byte: at most 256 distinct values.
    assert len({id(op.value) for op in ops}) == len({op.value for op in ops}) <= 256


def test_make_key_ordered_vs_hashed():
    ordered = [make_key(i, ordered=True) for i in range(10)]
    assert ordered == sorted(ordered)
    hashed = [make_key(i, ordered=False) for i in range(100)]
    assert hashed != sorted(hashed)
    assert len(set(hashed)) == 100  # no collisions at this scale


def test_make_value_size():
    import random

    assert len(make_value(random.Random(0), 100)) == 100


def test_load_keys_count_and_uniqueness():
    spec = WorkloadSpec(record_count=500, operation_count=0)
    generator = OperationGenerator(spec)
    keys = list(generator.load_keys())
    assert len(keys) == 500
    assert len(set(keys)) == 500


def test_operation_count_and_mix():
    spec = WorkloadSpec(
        record_count=100,
        operation_count=5000,
        read_proportion=0.7,
        blind_write_proportion=0.3,
    )
    ops = list(OperationGenerator(spec, seed=1).operations())
    assert len(ops) == 5000
    mix = Counter(op.kind for op in ops)
    assert 0.6 < mix[OpKind.READ] / 5000 < 0.8
    assert 0.2 < mix[OpKind.BLIND_WRITE] / 5000 < 0.4


def test_requests_target_loaded_keys():
    spec = WorkloadSpec(
        record_count=50, operation_count=500, read_proportion=1.0
    )
    generator = OperationGenerator(spec, seed=2)
    loaded = set(generator.load_keys())
    for op in generator.operations():
        assert op.key in loaded


def test_inserts_extend_the_keyspace():
    spec = WorkloadSpec(
        record_count=10, operation_count=100, insert_proportion=1.0
    )
    generator = OperationGenerator(spec, seed=3)
    loaded = set(generator.load_keys())
    new_keys = [op.key for op in generator.operations()]
    assert len(set(new_keys)) == 100
    assert not (set(new_keys) & loaded)


def test_scan_lengths_in_bounds():
    spec = WorkloadSpec(
        record_count=100,
        operation_count=300,
        scan_proportion=1.0,
        scan_length_min=2,
        scan_length_max=7,
    )
    for op in OperationGenerator(spec, seed=4).operations():
        assert op.kind is OpKind.SCAN
        assert 2 <= op.scan_length <= 7


def test_writes_carry_values_of_configured_size():
    spec = WorkloadSpec(
        record_count=10,
        operation_count=50,
        blind_write_proportion=1.0,
        value_bytes=77,
    )
    for op in OperationGenerator(spec, seed=5).operations():
        assert len(op.value) == 77


def test_deterministic_given_seed():
    spec = WorkloadSpec(
        record_count=20,
        operation_count=100,
        read_proportion=0.5,
        blind_write_proportion=0.5,
    )
    a = list(OperationGenerator(spec, seed=9).operations())
    b = list(OperationGenerator(spec, seed=9).operations())
    assert a == b


def test_reads_and_deletes_have_no_value():
    spec = WorkloadSpec(
        record_count=20,
        operation_count=60,
        read_proportion=0.5,
        delete_proportion=0.5,
    )
    for op in OperationGenerator(spec, seed=6).operations():
        assert op.value is None


def test_load_only_spec_generates_no_operations():
    # operation_count == 0 with no proportions: rng.choices([], k=0)
    # raises IndexError, so the batched path used to crash where the
    # streaming path yields nothing.
    spec = WorkloadSpec(record_count=50, operation_count=0)
    assert list(OperationGenerator(spec).operations()) == []
    assert OperationGenerator(spec).prepared_operations() == []
