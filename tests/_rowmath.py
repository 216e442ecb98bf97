"""Matrix helpers on nested rows, for building and checking test inputs
apart from quadlie's ScaledArray kernels.  Entries support +, * and
comparison with 0."""

from quadlie import scalars


def mat_vec(a, x):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def transpose(a):
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def identity(n, exact=True):
    return scalars.eye(n, exact).tuples()
