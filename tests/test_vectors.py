"""Vector-space unit tests: backends, arithmetic, JSON formats."""

import random
from fractions import Fraction

import pytest

from jamestree.nodes import NodeId, node_at
from jamestree.vectors import (
    EXACT,
    FLOAT,
    BackendMismatchError,
    JTVector,
    VectorFormatError,
    basis_vector,
    dumps_vector,
    loads_json,
    loads_vector,
)


def test_zero_entries_are_dropped():
    x = JTVector.from_entries({"": 1, "0": 0, "1": Fraction(0)})
    assert x.support() == {NodeId()}


def test_support_and_coordinate():
    x = JTVector.from_entries({"0": 3, "1": 1})
    assert x.coordinate(NodeId((0,))) == 3
    assert x.coordinate(NodeId((1, 1))) == 0
    e = basis_vector(NodeId((0,)))
    assert e.coordinate(NodeId((0,))) == 1
    assert e.coordinate(NodeId((1,))) == 0


def test_add_examples():
    x = JTVector.from_entries({"": 1, "0": Fraction(1, 2)})
    zero = JTVector.zero()
    assert x + zero == x
    e = basis_vector(NodeId((0,)))
    assert (e + e.scale(-1)).is_zero
    both = basis_vector(NodeId()) + basis_vector(NodeId((0,)))
    assert both.support() == {NodeId(), NodeId((0,))}


def test_scale_examples():
    x = JTVector.from_entries({"0": Fraction(3, 2)})
    assert x.scale(1) == x
    assert x.scale(0).is_zero
    assert (2 * x).coordinate(NodeId((0,))) == 3
    assert (-x).coordinate(NodeId((0,))) == Fraction(-3, 2)


def test_backend_mismatch_rejected():
    # a scale factor is read by the vector's input policy, as its entries were
    x = JTVector.from_entries({"": 1}, EXACT)
    y = JTVector.from_entries({"": 1.0}, FLOAT)
    with pytest.raises(BackendMismatchError):
        x.scale(0.5)
    with pytest.raises(BackendMismatchError):
        y.scale(Fraction(1, 2))


def test_float_backend_reads_binary64_exactly():
    # each value is read as binary64, then exactly: an int beyond 2^53 rounds
    x = JTVector.from_entries({"": 0.1, "0": 2**53 + 1, "1": -0.0}, FLOAT)
    assert x.entries == {NodeId(): Fraction(0.1), NodeId((0,)): Fraction(2**53)}
    assert {type(v) for v in x.entries.values()} == {Fraction}
    # one arithmetic: sums and products are exact, whatever read the vector
    assert (x + x).backend == FLOAT
    assert x + x == JTVector.from_entries({"": 2 * Fraction(0.1), "0": 2**54})
    assert x.scale(1e-200).coordinate(NodeId()) == Fraction(0.1) * Fraction(1e-200)
    third = Fraction(1, 3)
    assert JTVector.from_entries({"": third}).entries[NodeId()] is third


def test_scalar_coercion_rules():
    with pytest.raises(BackendMismatchError):
        JTVector.from_entries({"": 0.5}, EXACT)  # no silent float-to-rational
    with pytest.raises(BackendMismatchError):
        JTVector.from_entries({"": Fraction(1, 2)}, FLOAT)
    with pytest.raises(VectorFormatError):
        JTVector.from_entries({"": "1/2"}, FLOAT)
    with pytest.raises(VectorFormatError):
        JTVector.from_entries({"": "one half"}, EXACT)
    with pytest.raises(BackendMismatchError):
        JTVector.from_entries({"": True}, EXACT)
    assert JTVector.from_entries({"": "-5/2"}, EXACT).coordinate(NodeId()) == Fraction(-5, 2)


def test_partial_sum_examples():
    x = basis_vector(NodeId()) + basis_vector(NodeId((1,)))
    assert x.partial_sum(0).is_zero
    assert x.partial_sum(2) == basis_vector(NodeId())  # t_3 = (1)
    assert x.partial_sum(3) == x
    assert x.partial_sum(100) == x


def test_partial_sum_split_identity():
    rng = random.Random(5)
    for _ in range(50):
        entries = {
            node_at(rng.randint(1, 40)): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(1, 8))
        }
        x = JTVector.from_entries(entries)
        k = rng.randint(0, 45)
        s = x.partial_sum(k)
        assert s + (x - s) == x


def test_add_commutative_associative_exact():
    rng = random.Random(6)

    def rand_vec():
        return JTVector.from_entries(
            {
                node_at(rng.randint(1, 30)): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(rng.randint(0, 6))
            }
        )

    for _ in range(40):
        x, y, z = rand_vec(), rand_vec(), rand_vec()
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        for node in (x + y).support():
            assert (x + y).coordinate(node) == x.coordinate(node) + y.coordinate(node)


def test_items_are_in_enumeration_order():
    x = JTVector.from_entries({"11": 1, "": 2, "0": 3})
    assert [str(n) for n, _ in x.items()] == ["", "0", "11"]


# ---------------------------------------------------------------------------
# file format


def test_loads_vector_exact():
    x = loads_vector('{"": 1, "0": "-5/2", "01": 3}')
    assert x.coordinate(NodeId()) == 1
    assert x.coordinate(NodeId((0,))) == Fraction(-5, 2)
    assert x.coordinate(NodeId((0, 1))) == 3


def test_decimal_literals_read_exactly():
    # "0.5" in an exact file means one half, not the binary64 neighbor
    x = loads_vector('{"0": 0.5, "1": 0.1}')
    assert x.coordinate(NodeId((0,))) == Fraction(1, 2)
    assert x.coordinate(NodeId((1,))) == Fraction(1, 10)


def test_loads_vector_float_backend():
    x = loads_vector('{"": 1, "0": 0.25}', FLOAT)
    assert x.backend == FLOAT
    assert x.coordinate(NodeId((0,))) == 0.25
    with pytest.raises(VectorFormatError):
        loads_vector('{"": "1/2"}', FLOAT)


def test_loads_vector_rejects_malformed():
    with pytest.raises(VectorFormatError):
        loads_vector("[1, 2]")
    with pytest.raises(VectorFormatError):
        loads_vector('{"02": 1}')
    with pytest.raises(VectorFormatError):
        loads_vector('{"0": [1]}')
    with pytest.raises(VectorFormatError):
        loads_vector('{"0": true}')
    with pytest.raises(VectorFormatError):
        loads_vector("not json")


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_loads_json_rejects_duplicate_keys(backend):
    with pytest.raises(VectorFormatError, match="duplicate key '0'"):
        loads_json('{"0": 1, "0": 2}', backend)
    with pytest.raises(VectorFormatError, match="duplicate key 'alpha'"):
        loads_json('{"terms": [{"alpha": 1, "interval": "..", "alpha": 2}]}', backend)
    assert loads_json('{"a": {"0": 1}, "b": {"0": 2}}', backend) == {"a": {"0": 1}, "b": {"0": 2}}


def test_dumps_loads_roundtrip():
    x = JTVector.from_entries({"": Fraction(-5, 2), "01": 3, "110": Fraction(7)})
    assert loads_vector(dumps_vector(x)) == x


def test_basis_at():
    assert basis_vector(node_at(4)).support() == {NodeId((0, 0))}
