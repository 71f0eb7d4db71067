"""Shared checks for the test modules."""

import copy
import pickle

import pytest


def check_record_contract(cls, fields, expected_repr, hashable=True):
    """The contract every record type keeps: construction from ``fields`` (a
    dict in field order) by position and by keyword, the exact ``repr``, a
    hash equal to that of the tuple of its fields, pickle and ``copy`` round
    trips, and an ``AttributeError`` on any attribute assignment that leaves
    the record unchanged."""
    values = tuple(fields.values())
    record = cls(*values)
    assert cls(**fields) == record
    assert tuple(getattr(record, name) for name in fields) == values
    assert repr(record) == expected_repr
    if hashable:
        assert hash(record) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(record)
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is cls and twin == record and repr(twin) == expected_repr
    first = next(iter(fields))
    for name in (first, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.5)
        assert repr(record) == expected_repr
        assert not hasattr(record, "no_such_field")


@pytest.fixture
def record_contract():
    return check_record_contract
