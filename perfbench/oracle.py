"""Exact integer oracle for the Stokes matrices of P^n.

The inverse Stokes matrix of QH(P^n) is, up to slot signs, the Gram
matrix of an exceptional collection under the Euler form.  For the
line bundle collection O, O(1), ..., O(n) that Gram matrix is
chi(O(a), O(b)) = C(n + b - a, n), upper unitriangular.  Other chambers
give other collections, related by the braid group action G -> A G A^T
with A integral and unimodular; the characteristic polynomial of
G^{-1} G^T is invariant under that action and under slot signs, so it
checks a chamber whose collection is not known in closed form.

Everything here is exact integer or rational arithmetic: nothing in
this module depends on the numerics it checks.
"""

import math
from fractions import Fraction

# A matrix entry this close to an integer rounds unambiguously; how
# close it really is gets reported as digits, not judged here.
ROUND_TOL = 1e-2


def chi_gram(n):
    """Gram matrix chi(O(a), O(b)) of O, ..., O(n) on P^n."""
    return [[math.comb(n + b - a, n) if b >= a else 0 for b in range(n + 1)]
            for a in range(n + 1)]


def unitriangular_inverse(mat):
    """Exact inverse of an upper unitriangular integer matrix."""
    size = len(mat)
    inv = [[int(i == j) for j in range(size)] for i in range(size)]
    for j in range(size):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(mat[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return inv


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def charpoly(mat):
    """Coefficients of det(x I - mat), leading first, by Faddeev-LeVerrier."""
    size = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * size for _ in range(size)]
    for k in range(1, size + 1):
        for i in range(size):
            m[i][i] += coeffs[-1]
        m = matmul(a, m)
        coeffs.append(-sum(m[i][i] for i in range(size)) / k)
    return tuple(coeffs)


def coxeter_charpoly(stokes):
    """Characteristic polynomial of V V^{-T} for an integer Stokes matrix V.

    With G = V^{-1} this is G^{-1} G^T, a braid and sign invariant.
    """
    return charpoly(matmul(stokes, transpose(unitriangular_inverse(stokes))))


def sign_gauge(gram):
    """Slot signs making the first superdiagonal of gram nonnegative.

    Same rule as qstokes.stokes.gram_sign_gauge, on exact integers.
    """
    signs = [1]
    for j in range(1, len(gram)):
        signs.append(-1 if gram[j - 1][j] * signs[j - 1] < 0 else 1)
    return signs


def round_matrix(values):
    """Nearest integer matrix and the largest distance to it.

    values is a nested sequence of complex numbers; the imaginary parts
    count toward the distance.
    """
    ints = [[round(complex(x).real) for x in row] for row in values]
    dist = max(abs(complex(x) - k) for row, irow in zip(values, ints)
               for x, k in zip(row, irow))
    return ints, dist


def check_stokes(values, n, fixed_chamber):
    """Check a numerical V_+ of P^n against the oracle.

    Returns (problem, dist): problem is None when V_+ rounds to an
    integer unipotent upper triangular matrix whose Coxeter polynomial
    is that of P^n and, in a fixed chamber, which equals the inverse
    chi-Gram matrix of O, ..., O(n) up to slot signs; otherwise a
    one-line reason.  dist is the distance of V_+ from its rounding.
    """
    ints, dist = round_matrix(values)
    size = n + 1
    if len(ints) != size or any(len(row) != size for row in ints):
        return "V+ is not {0}x{0}".format(size), dist
    if dist > ROUND_TOL:
        return "V+ is {:.3g} away from an integer matrix".format(dist), dist
    for i in range(size):
        if ints[i][i] != 1 or any(ints[i][j] for j in range(i)):
            return "V+ is not upper unitriangular", dist
    gram = chi_gram(n)
    if coxeter_charpoly(ints) != coxeter_charpoly(unitriangular_inverse(gram)):
        return "Coxeter polynomial differs from that of P^{}".format(n), dist
    if fixed_chamber:
        signs = sign_gauge(unitriangular_inverse(ints))
        gauged = [[ints[i][j] * signs[i] * signs[j] for j in range(size)]
                  for i in range(size)]
        if gauged != unitriangular_inverse(gram):
            return "V+ differs from the inverse chi-Gram matrix", dist
    return None, dist
