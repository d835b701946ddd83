"""Exact comparison of weight stores (name -> array dicts in file order)."""


def same_store(a, b):
    """Same names in the same order and, per entry, equal dtype, shape and bytes.

    Stricter than np.array_equal: it tells -0.0 from 0.0 and compares NaN
    payloads.
    """
    return list(a) == list(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a.values(), b.values()))
