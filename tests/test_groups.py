import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from oracles import CayleyTable, cyclic_subgroup, elements
from powergraph.groups import (
    IDENTITY,
    GroupElement,
    GroupParams,
    ParameterError,
    cyclic_powers,
    multiply,
    product,
)

P23 = GroupParams(2, 3)


def test_params_derived_quantities():
    assert P23.rotation_order == 12
    assert P23.order == 24
    assert P23.multiplier == 5
    assert GroupParams(2, 5).order == 40
    assert GroupParams(3, 3).multiplier == 11


@pytest.mark.parametrize("k,p", [(1, 3), (2, 2), (2, 4), (2, 9), (0, 5)])
def test_params_rejected(k, p):
    with pytest.raises(ParameterError):
        GroupParams(k, p)


def test_multiplier_is_self_inverse():
    for k, p in [(2, 3), (2, 5), (3, 3), (3, 7), (4, 5)]:
        params = GroupParams(k, p)
        assert params.multiplier**2 % params.rotation_order == 1


def test_normal_form_products():
    s, r = GroupElement(1, 0), GroupElement(0, 1)
    assert multiply(s, r, P23) == GroupElement(1, 1)
    # r s = s r^m with m = 5
    assert multiply(r, s, P23) == GroupElement(1, 5)
    # s r^2 is an involution
    sr2 = GroupElement(1, 2)
    assert multiply(sr2, sr2, P23) == IDENTITY


def test_conjugation_relation():
    for k, p in [(2, 3), (2, 5), (3, 3)]:
        params = GroupParams(k, p)
        s, r = GroupElement(1, 0), GroupElement(0, 1)
        conj = multiply(multiply(s, r, params), s, params)  # s is an involution
        assert conj == GroupElement(0, params.multiplier)


def test_power():
    r = GroupElement(0, 1)
    current = r
    for _ in range(11):
        current = multiply(current, r, P23)
    assert current == IDENTITY  # r^12 = e
    sr = GroupElement(1, 1)
    assert multiply(sr, sr, P23) == GroupElement(0, 6)  # (sr)^2 = u


def test_order():
    # the order of g is the size of the cyclic subgroup it generates
    assert len(cyclic_subgroup(IDENTITY, P23)) == 1
    assert len(cyclic_subgroup(GroupElement(1, 2), P23)) == 2
    assert len(cyclic_subgroup(GroupElement(1, 1), P23)) == 4
    for g in elements(P23):
        assert P23.order % len(cyclic_subgroup(g, P23)) == 0


def test_cyclic_subgroup():
    assert cyclic_subgroup(IDENTITY, P23) == frozenset([IDENTITY])
    assert cyclic_subgroup(GroupElement(1, 2), P23) == frozenset(
        [IDENTITY, GroupElement(1, 2)]
    )
    assert len(cyclic_subgroup(GroupElement(0, 1), P23)) == 12
    sr = GroupElement(1, 1)
    assert cyclic_subgroup(sr, P23) == frozenset(
        [IDENTITY, sr, GroupElement(0, 6), GroupElement(1, 7)]
    )


@given(
    st.tuples(st.integers(0, 1), st.integers(0, 11)),
    st.tuples(st.integers(0, 1), st.integers(0, 11)),
    st.tuples(st.integers(0, 1), st.integers(0, 11)),
)
def test_associativity(a, b, c):
    x, y, z = (GroupElement(*t) for t in (a, b, c))
    left = multiply(multiply(x, y, P23), z, P23)
    right = multiply(x, multiply(y, z, P23), P23)
    assert left == right


@given(st.tuples(st.integers(0, 1), st.integers(0, 11)))
@settings(max_examples=48)
def test_inverse_and_identity(a):
    x = GroupElement(*a)
    inverses = [y for y in elements(P23) if multiply(x, y, P23) == IDENTITY]
    assert len(inverses) == 1
    assert multiply(inverses[0], x, P23) == IDENTITY
    assert multiply(x, IDENTITY, P23) == x
    assert multiply(IDENTITY, x, P23) == x


@pytest.mark.parametrize("params", [P23, GroupParams(3, 5)], ids=["2-3", "3-5"])
def test_array_product_equals_multiply_on_every_pair(params):
    group = elements(params)
    eps, i = (np.array(part) for part in zip(*((g.eps, g.i) for g in group)))
    # every pair at once: rows a, columns b
    prod_eps, prod_i = product((eps[:, None], i[:, None]), (eps[None, :], i[None, :]), params)
    expected = [[multiply(a, b, params) for b in group] for a in group]
    assert prod_eps.tolist() == [[g.eps for g in row] for row in expected]
    assert prod_i.tolist() == [[g.i for g in row] for row in expected]


@pytest.mark.parametrize("params", [P23, GroupParams(3, 5)], ids=["2-3", "3-5"])
def test_cyclic_powers_hold_each_cyclic_subgroup(params):
    group = elements(params)
    eps, i = cyclic_powers(([g.eps for g in group], [g.i for g in group]), params)
    largest = max(len(cyclic_subgroup(g, params)) for g in group)
    # the least power of two, at least 2, that is not below the largest order
    assert eps.shape == i.shape == (len(group), max(2, 1 << (largest - 1).bit_length()))
    for g, row_eps, row_i in zip(group, eps.tolist(), i.tolist()):
        assert set(map(GroupElement, row_eps, row_i)) == cyclic_subgroup(g, params)


def test_cayley_oracle_small():
    table = CayleyTable(P23)
    assert len(table.elements) == 24
    table.verify()  # exhaustive associativity at n <= 48, full agreement


def test_cayley_oracle_p5():
    table = CayleyTable(GroupParams(2, 5))
    assert len(table.elements) == 40
    table.verify()


def test_cayley_oracle_sampled_associativity():
    table = CayleyTable(P23)
    table.verify(assoc_samples=2000, exhaustive_limit=0)


def test_cayley_oracle_cap():
    with pytest.raises(ParameterError):
        CayleyTable(GroupParams(4, 11))  # order 352 over the default cap
