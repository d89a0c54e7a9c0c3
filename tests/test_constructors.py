"""The block constructions `direct_product`, `matrix_ring` and `group_ring`:
their structure constants are pinned by digest, and every input check has
a test."""

import hashlib
import json

import pytest

from ringinv.ring_core import (
    NotUnital,
    RingError,
    cyclic_ring,
    direct_product,
    group_ring,
    matrix_ring,
    zero_mult_ring,
)

from test_cross_checks import s3_cayley
from test_ladder import ladder_instances

# SHA-256 over (name, cyclic orders, table, unit) of every ring below, in
# order: the named catalog, the ladder, then three default-named
# constructions that mix block shapes (a non-unital factor, a 3x3 matrix
# ring over Z/4, a group ring over a noncommutative coefficient ring).
CONSTRUCTOR_DIGEST = "e5eef24876e0e2768f801498cb1afea19cc197917c2f0471fe053f85965b2e0c"


def constructed_rings(named_catalog):
    rings = [inst.ring for inst in named_catalog]
    rings += [inst.ring for inst in ladder_instances()]
    rings.append(direct_product([cyclic_ring(4), zero_mult_ring((2,))]))
    rings.append(matrix_ring(cyclic_ring(4), 3))
    rings.append(group_ring(matrix_ring(cyclic_ring(2), 2), s3_cayley()))
    return rings


def ring_digest(rings) -> str:
    payload = json.dumps([[r.name, r.cyclic_orders, r.mul_table, r.unit]
                          for r in rings])
    return hashlib.sha256(payload.encode()).hexdigest()


def test_constructed_tables_are_pinned(named_catalog):
    assert ring_digest(constructed_rings(named_catalog)) == CONSTRUCTOR_DIGEST


def test_empty_direct_product_rejected():
    with pytest.raises(RingError, match="empty product"):
        direct_product([])


def test_matrix_ring_size_zero_rejected():
    with pytest.raises(RingError, match="matrix size must be >= 1") as err:
        matrix_ring(cyclic_ring(2), 0)
    assert not isinstance(err.value, NotUnital)


def test_matrix_ring_unit_check_comes_first():
    with pytest.raises(NotUnital):
        matrix_ring(zero_mult_ring((2,)), 0)


def test_group_ring_needs_unital_coefficients():
    with pytest.raises(NotUnital, match="group ring needs a unital"):
        group_ring(zero_mult_ring((2,)), [[0, 1], [1, 0]])


@pytest.mark.parametrize("cayley, message", [
    ([[0, 1], [1]], "Cayley table must be square"),
    ([[0, 0], [0, 0]], "Cayley table has no identity"),
    ([[0, 1], [1, 1]], "element 1 has no inverse"),
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "Cayley table is not associative"),
])
def test_group_ring_rejects_bad_cayley_tables(cayley, message):
    with pytest.raises(RingError, match=message) as err:
        group_ring(cyclic_ring(2), cayley)
    assert not isinstance(err.value, NotUnital)
