"""Unit tests for the operation generator."""

import dataclasses
import hashlib
import random
from collections import Counter

import pytest

from repro.ycsb import OperationGenerator, OpKind, WorkloadSpec
from repro.ycsb.distributions import LatestChooser, make_chooser
from repro.ycsb.generator import Operation, make_key, make_value
from repro.ycsb.workload import standard_workload


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


def stream_digest(spec, seeds):
    """A digest of ``prepared_operations()`` for each seed in turn:
    every op's kind, key, value and scan length."""
    digest = hashlib.blake2b(digest_size=12)
    for seed in seeds:
        for op in OperationGenerator(spec, seed=seed).prepared_operations():
            value = op.value
            digest.update(b"%s %d %d %d|" % (
                op.kind.value.encode(), op.scan_length, len(op.key),
                -1 if value is None else len(value),
            ))
            digest.update(op.key)
            if value is not None:
                digest.update(value)
    return digest.hexdigest()


# The closed-loop benchmark's four prepared streams (bench/workloads.py
# at its full size, seed 0) and their digests.
BENCH_STREAMS = {
    "read_cold": (
        WorkloadSpec(
            record_count=22_223, operation_count=190_000,
            read_proportion=1.0, request_distribution="uniform",
        ),
        "351742378c373cffe1e38b75",
    ),
    "read_hot": (
        standard_workload("c", 3_000, 400_000),
        "6a31652034f651d0fba092dc",
    ),
    "mixed_a": (
        standard_workload("a", 20_000, 255_000),
        "d9ffe258d8d0ff1160b64f2d",
    ),
    "scan_short": (
        WorkloadSpec(
            record_count=20_000, operation_count=12_000,
            scan_proportion=0.95, insert_proportion=0.05,
            request_distribution="zipfian",
            scan_length_min=1, scan_length_max=4,
        ),
        "a64b3437d6ab57d5d9cc757d",
    ),
}


@pytest.mark.parametrize("name", sorted(BENCH_STREAMS))
def test_prepared_benchmark_streams_keep_their_digests(name):
    spec, expected = BENCH_STREAMS[name]
    assert stream_digest(spec, seeds=(0,)) == expected


# MIXES x request distribution -> digest of the seed-0 and seed-3 streams.
MIX_DIGESTS = {
    ('everything', 'uniform'): 'b5c2accc607d7635e133eb0e',
    ('everything', 'zipfian'): '63d7804b1bb374536e01539e',
    ('everything', 'zipfian_clustered'): 'd025779ccdf2e1df70893d84',
    ('everything', 'latest'): '73e6a4d22aa94969beabed54',
    ('read_write', 'uniform'): 'a0c30ab271e5435e37526ae4',
    ('read_write', 'zipfian'): '3ad91696061def05f5b666b7',
    ('read_write', 'zipfian_clustered'): '0dfc64fa66a26c55afad73f5',
    ('read_write', 'latest'): 'e2b52c2a8b61eba90dc6899f',
    ('ycsb_a_rmw', 'uniform'): '0195f1fbb53a33cc77017b84',
    ('ycsb_a_rmw', 'zipfian'): '0151db83d22252e44ad5c6e8',
    ('ycsb_a_rmw', 'zipfian_clustered'): '0088855d88be5662e2093d7f',
    ('ycsb_a_rmw', 'latest'): '5c9e90cfc3da5b7847412a99',
    ('ycsb_e', 'uniform'): 'ec3ef356d9d9a7a70385aa82',
    ('ycsb_e', 'zipfian'): '699c0597a7e0791d2eeca418',
    ('ycsb_e', 'zipfian_clustered'): '85e2bac696f15903f90c8b85',
    ('ycsb_e', 'latest'): 'f8af1612b1faf07f3c72e57f',
    ('ycsb_f', 'uniform'): '2b3fe8e433963d9aaffa4574',
    ('ycsb_f', 'zipfian'): 'b4bcf66698ad7dc30dcb816c',
    ('ycsb_f', 'zipfian_clustered'): '8fd2da36349579fe5a37e6a8',
    ('ycsb_f', 'latest'): 'd3187effb26116c577a4dd71',
}


@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize(
    "distribution", ["uniform", "zipfian", "zipfian_clustered", "latest"]
)
def test_prepared_streams_keep_their_digests(distribution, mix):
    spec = WorkloadSpec(
        record_count=150,
        operation_count=400,
        request_distribution=distribution,
        value_bytes=24,
        scan_length_min=2,
        scan_length_max=9,
        **MIXES[mix],
    )
    assert stream_digest(spec, seeds=(0, 3)) == MIX_DIGESTS[mix, distribution]


def test_a_prepared_stream_holds_one_object_per_key_only_op():
    spec = WorkloadSpec(
        record_count=40, operation_count=3000, read_proportion=0.4,
        delete_proportion=0.3, update_proportion=0.3,
    )
    ops = OperationGenerator(spec, seed=2).prepared_operations()
    by_fields = {}
    for op in ops:
        if op.kind in (OpKind.READ, OpKind.DELETE):
            assert by_fields.setdefault((op.kind, op.key), op) is op
    assert len(by_fields) <= 2 * 40 < sum(
        op.kind is not OpKind.UPDATE for op in ops
    )
    updates = [op for op in ops if op.kind is OpKind.UPDATE]
    assert len({id(op) for op in updates}) == len(updates)


def test_an_operation_cannot_be_assigned_to():
    op = OperationGenerator(
        WorkloadSpec(record_count=5, operation_count=1, read_proportion=1.0)
    ).prepared_operations()[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.key = b"other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.value = b"v"


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
