"""The record classes behave as the dataclasses they replaced.

Each record is checked against a dataclass made at test time with the same
name and fields: the same repr, byte for byte, and the same hash where it
is frozen.  Equality, copy-with-changes and immutability are checked on
the records themselves.
"""

import dataclasses

import pytest

from syzlab.arith import PrimeField, random_prime
from syzlab.betti import (
    CellResult,
    EngineConfig,
    betti_table,
    check_duality,
    euler_check,
    make_config,
)
from syzlab.bounds import compare_report
from syzlab.cycles import build_kp0_cycle, verify_nonzero_class
from syzlab.koszul import DEFAULT_MEMORY_CAP, Parameters
from syzlab.linalg import RankCertificate, SparseMatrix
from syzlab.schur import schur_multiplicities


def samples():
    """One instance of each of the 14 record classes; frozen ones first."""
    table = betti_table(2, 0, 3)
    report = compare_report(table)
    primes = make_config().primes
    return [
        (PrimeField(random_prime(31, 0)), True),
        (SparseMatrix(2, (((0, 1),), ((1, -1), (0, 1)))), True),
        (RankCertificate(2, primes, True, False), True),
        (Parameters(2, 0, 4, 6, 1), True),
        (make_config(), True),
        (table.cells[(2, 1)], True),
        (report.strands[1].sharp, True),
        (table, False),
        (euler_check(table), False),
        (check_duality(table), False),
        (report.strands[1], False),
        (report, False),
        (verify_nonzero_class(build_kp0_cycle(1, 2, 3, 2)), False),
        (schur_multiplicities(2, 0, 3, 2, 1), False),
    ]


def as_dataclass(record, frozen):
    cls = dataclasses.make_dataclass(type(record).__name__, record._fields, frozen=frozen)
    return cls(**{name: getattr(record, name) for name in record._fields})


def test_records_print_and_hash_as_dataclasses():
    cases = samples()
    assert len({type(record) for record, _ in cases}) == 14
    for record, frozen in cases:
        twin = as_dataclass(record, frozen)
        assert repr(record) == repr(twin)
        assert record != twin       # another class, as between two dataclasses
        if frozen:
            assert hash(record) == hash(twin)
        else:
            assert type(record).__hash__ is None


def test_records_compare_and_copy_by_fields():
    for record, frozen in samples():
        copy = record.replace()
        assert copy == record and copy is not record
        assert [getattr(copy, f) for f in record._fields] == \
            [getattr(record, f) for f in record._fields]
        with pytest.raises(TypeError):
            record.replace(no_such_field=1)
        name = record._fields[-1]
        if frozen:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(record, name)
            assert getattr(record, name) == getattr(copy, name)
        else:
            setattr(copy, name, None)
            assert copy != record


def test_copy_with_changes_is_checked_by_the_constructor():
    cell = Parameters(2, 0, 3, 1, 1)
    assert cell.replace(p=4) == Parameters(2, 0, 3, 4, 1)
    assert repr(cell.replace(p=4)) == "Parameters(n=2, b=0, d=3, p=4, q=1)"
    with pytest.raises(ValueError, match="p must be >= 0"):
        cell.replace(p=-1)
    with pytest.raises(ValueError, match="two distinct primes"):
        make_config().replace(primes=(5, 5))


def test_defaults_are_readable_on_the_class():
    assert EngineConfig.mode == "two-prime" and EngineConfig.primes == ()
    assert EngineConfig.memory_cap == DEFAULT_MEMORY_CAP
    assert EngineConfig(primes=(3, 5)) == EngineConfig("two-prime", (3, 5), DEFAULT_MEMORY_CAP)
    assert CellResult.analytic is False
    cell = betti_table(1, 0, 3).cells[(1, 1)]
    rec = cell.to_record()
    assert CellResult.from_record(rec) == cell
    del rec["analytic"]      # as older stores hold it
    assert CellResult.from_record(rec) == cell.replace(analytic=False)
