"""Gauss–Jordan elimination over Fraction: the reference that the integer
echelon forms, kernels and meets of ``ymesh.projective`` are tested
against.  Rows may hold ints or Fractions."""

from fractions import Fraction


def fraction_rref(rows):
    """Reduced row echelon form over Q, pivots 1.  Returns (rows,
    pivot_columns) as tuples."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank]), tuple(pivots)


def fraction_nullspace(rows, ncols):
    """Basis of the right kernel of the rows (each of length ncols): for each
    free column, the vector that is 1 there and 0 at the other free columns."""
    red, pivots = fraction_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            vec[pc] = -r[fc]
        basis.append(tuple(vec))
    return basis


def fraction_meet(rows1, rows2, ncols):
    """Reduced rows of the intersection of the row spaces of rows1 and rows2:
    each kernel vector of the matrix whose columns are the reduced rows of
    rows1 and minus those of rows2 gives the coefficients of a common
    vector."""
    a, b = fraction_rref(rows1)[0], fraction_rref(rows2)[0]
    mat = [[r[i] for r in a] + [-r[i] for r in b] for i in range(ncols)]
    basis = [tuple(sum(c * r[i] for c, r in zip(coef, a)) for i in range(ncols))
             for coef in fraction_nullspace(mat, len(a) + len(b))]
    return fraction_rref(basis)[0]
