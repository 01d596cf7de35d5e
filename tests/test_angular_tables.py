"""The angular-momentum tables against test-local rational-arithmetic builders.

spinaxes.angular evaluates each Racah and Wigner sum in integer arithmetic and
fills most of every tensor operator from the Clebsch-Gordan symmetries. The
references below evaluate every entry on its own with fractions.Fraction, a
gcd after every term, and convert to float once; the tables and coefficients
must carry the same bits, signs of zeros included.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from spinaxes.angular import (
    HalfInt,
    _couple_table,
    _tensor_diagonals,
    _tensor_operator_cached,
    _wigner_d_table,
    clebsch_gordan,
    tensor_index,
)


def fraction_cg(tj1, tj2, tj3, tm1, tm2, tm3) -> float:
    """C(j1 j2 j3; m1 m2 m3) from the Racah sum over Fractions; arguments are twice the quantum numbers."""
    if tm1 + tm2 != tm3 or not abs(tj1 - tj2) <= tj3 <= tj1 + tj2:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    f = math.factorial
    a = (tj1 + tj2 - tj3) // 2
    b = (tj1 - tj2 + tj3) // 2
    c = (-tj1 + tj2 + tj3) // 2
    pref2 = Fraction(
        (tj3 + 1)
        * f(a) * f(b) * f(c)
        * f((tj1 + tm1) // 2) * f((tj1 - tm1) // 2)
        * f((tj2 + tm2) // 2) * f((tj2 - tm2) // 2)
        * f((tj3 + tm3) // 2) * f((tj3 - tm3) // 2),
        f((tj1 + tj2 + tj3) // 2 + 1),
    )
    j1m1 = (tj1 - tm1) // 2
    j2pm2 = (tj2 + tm2) // 2
    d1 = (tj3 - tj2 + tm1) // 2
    d2 = (tj3 - tj1 - tm2) // 2
    total = Fraction(0)
    for z in range(max(0, -d1, -d2), min(a, j1m1, j2pm2) + 1):
        total += Fraction((-1) ** z, f(z) * f(a - z) * f(j1m1 - z) * f(j2pm2 - z) * f(d1 + z) * f(d2 + z))
    if total == 0:
        return 0.0
    return float(total) * math.sqrt(pref2)


def fraction_tensor_operators(tj: int) -> np.ndarray:
    """Every tau[k,q] for j = tj/2, each entry sqrt(2k+1) C(j k j; m q m') evaluated on its own."""
    dim = tj + 1
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    for k in range(tj + 1):
        scale = math.sqrt(2 * k + 1)
        for q in range(-k, k + 1):
            for col, tm in enumerate(range(tj, -tj - 2, -2)):
                tmp = tm + 2 * q
                if abs(tmp) <= tj:
                    row = (tj - tmp) // 2
                    basis[tensor_index(k, q), row, col] = scale * fraction_cg(tj, 2 * k, tj, tm, 2 * q, tmp)
    return basis


def fraction_tensor_diagonals(tj: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's tau[k,q][r, r+q], r ascending, zero-padded; and the flat positions (r+q) (2j+1) + r, padded with 0."""
    dim = tj + 1
    basis = fraction_tensor_operators(tj)
    table = np.zeros((dim * dim, dim), dtype=complex)
    positions = np.zeros((dim * dim, dim), dtype=np.intp)
    for k in range(tj + 1):
        for q in range(-k, k + 1):
            for p, r in enumerate(range(max(0, -q), min(dim, dim - q))):
                table[tensor_index(k, q), p] = basis[tensor_index(k, q), r, r + q]
                positions[tensor_index(k, q), p] = (r + q) * dim + r
    return table, positions


def fraction_wigner_d_table(tj: int) -> np.ndarray:
    """Wigner-sum coefficient of each d element over each monomial, square roots of Fractions."""
    dim = tj + 1
    f = math.factorial
    table = np.zeros((dim * dim, dim))
    for r, tmp in enumerate(range(tj, -tj - 2, -2)):
        for c, tm in enumerate(range(tj, -tj - 2, -2)):
            jm, jmm = (tj + tm) // 2, (tj - tm) // 2
            jmp, jmmp = (tj + tmp) // 2, (tj - tmp) // 2
            mu = (tmp - tm) // 2
            pref2 = f(jmp) * f(jmmp) * f(jm) * f(jmm)
            for k in range(max(0, -mu), min(jm, jmmp) + 1):
                denom = f(jm - k) * f(k) * f(mu + k) * f(jmmp - k)
                table[r * dim + c, mu + 2 * k] = (-1) ** (mu + k) * math.sqrt(Fraction(pref2, denom * denom))
    return table


def fraction_couple_table(k1: int, k2: int, rank: int):
    """Gather tables of the nonzero C(k1 k2 K; q1 q2 q) per output q, front-padded as couple expects."""
    terms = [[] for _ in range(2 * rank + 1)]
    for i1 in range(2 * k1 + 1):
        for i2 in range(2 * k2 + 1):
            q = k1 - i1 + k2 - i2
            if abs(q) <= rank:
                cg = fraction_cg(2 * k1, 2 * k2, 2 * rank, 2 * (k1 - i1), 2 * (k2 - i2), 2 * q)
                if cg:
                    terms[rank - q].append((i1, i2, cg))
    width = max(len(row) for row in terms)
    padded = np.array([[(0, 0, 0.0)] * (width - len(row)) + row for row in terms])
    return padded[..., 0].astype(np.intp), padded[..., 1].astype(np.intp), padded[..., 2].astype(complex)


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint8), expected.view(np.uint8))


class TestTablesMatchRationalBuilders:
    @pytest.mark.parametrize("tj", range(11))
    def test_tensor_operators(self, tj):
        assert_same_bits(_tensor_operator_cached(tj), fraction_tensor_operators(tj))

    @pytest.mark.parametrize("tj", range(11))
    def test_tensor_diagonals(self, tj):
        table, positions = _tensor_diagonals(tj)
        expected_table, expected_positions = fraction_tensor_diagonals(tj)
        assert_same_bits(table, expected_table)
        assert_same_bits(positions, expected_positions)
        assert not table.flags.writeable and not positions.flags.writeable

    @pytest.mark.parametrize("tj", range(13))
    def test_wigner_d_table(self, tj):
        assert_same_bits(_wigner_d_table(tj), fraction_wigner_d_table(tj))

    @pytest.mark.parametrize("k1, k2, rank", [(k - 1, 1, k) for k in range(1, 17)]
                             + [(1, 1, 1), (2, 2, 0), (2, 2, 3), (3, 2, 4), (3, 3, 1), (4, 3, 2), (5, 5, 5),
                                (6, 4, 9)])
    def test_couple_table(self, k1, k2, rank):
        for got, expected in zip(_couple_table(k1, k2, rank), fraction_couple_table(k1, k2, rank), strict=True):
            assert_same_bits(got, expected)


class TestClebschGordanBits:
    def test_every_combination_up_to_j4(self):
        got, expected = [], []
        for tj1 in range(9):
            for tj2 in range(9):
                for tj3 in range((tj1 + tj2) % 2, 9, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            for tm3 in range(-tj3, tj3 + 1, 2):
                                value = clebsch_gordan(HalfInt(tj1), HalfInt(tj2), HalfInt(tj3),
                                                       HalfInt(tm1), HalfInt(tm2), HalfInt(tm3))
                                if tm1 + tm2 == tm3 and abs(tj1 - tj2) <= tj3 <= tj1 + tj2:
                                    got.append(value)
                                    expected.append(fraction_cg(tj1, tj2, tj3, tm1, tm2, tm3))
                                else:  # selection-rule zeros are +0.0
                                    assert math.copysign(1.0, value) == 1.0 and value == 0.0
        assert len(got) > 3000
        assert_same_bits(np.array(got), np.array(expected))
