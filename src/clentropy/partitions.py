"""Integer partitions: enumeration, counting, conjugation.

Partitions are plain tuples of weakly decreasing positive ints, e.g.
``(3, 1, 1)``; the empty partition is ``()``.  Enumeration order is
reverse-lexicographic, the order in which greedy decomposition naturally
produces them:

    >>> enumerate_partitions(4)
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

Counting uses Euler's pentagonal-number recurrence, so ``partition_count``
is exact for any n that fits in memory.
"""

from __future__ import annotations

from collections.abc import Iterator

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    """True if ``parts`` is a weakly decreasing tuple of positive ints.

    >>> is_partition((3, 1, 1)), is_partition((1, 2)), is_partition(())
    (True, False, True)
    """
    if not isinstance(parts, tuple):
        return False
    prev = None
    for x in parts:
        if not isinstance(x, int) or isinstance(x, bool) or x <= 0:
            return False
        if prev is not None and x > prev:
            return False
        prev = x
    return True


def iter_partitions(n: int) -> Iterator[Partition]:
    """Yield all partitions of ``n`` in reverse-lexicographic order.

    Iterative successor algorithm: to step past the current partition,
    decrement the rightmost part exceeding 1 and greedily refill the freed
    weight with parts no larger than the decremented value.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    a = [n]
    while True:
        yield tuple(a)
        i = len(a) - 1
        while i >= 0 and a[i] == 1:
            i -= 1
        if i < 0:
            return
        x = a[i] - 1
        total = sum(a[i:])  # weight to redistribute, including the old a[i]
        del a[i:]
        q, rem = divmod(total, x)
        a.extend([x] * q)
        if rem:
            a.append(rem)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of ``n``, reverse-lexicographically ordered."""
    return list(iter_partitions(n))


_pcount: list[int] = [1]  # partition numbers, extended on demand


def partition_count(n: int) -> int:
    """Number of partitions of ``n`` via the pentagonal recurrence.

    p(n) = sum_{k>=1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]

    >>> [partition_count(n) for n in range(8)]
    [1, 1, 2, 3, 5, 7, 11, 15]
    >>> partition_count(100)
    190569292
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_pcount) <= n:
        m = len(_pcount)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _pcount[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _pcount[m - g2]
            k += 1
        _pcount.append(total)
    return _pcount[n]


def dual_partition(parts: Partition) -> Partition:
    """Conjugate partition: lambda_j = #{i : parts[i] >= j}.

    An involution that transposes the Young diagram:

    >>> dual_partition((3, 1))
    (2, 1, 1)
    >>> dual_partition(dual_partition((3, 1)))
    (3, 1)
    """
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    if not parts:
        return ()
    return tuple(sum(1 for x in parts if x >= j) for j in range(1, parts[0] + 1))

