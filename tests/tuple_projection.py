"""Tuple projections for the tests: a point is a tuple of coordinates,
and bit i - 1 of a subset mask selects coordinate i.  They are kept
apart from the package's int-coded kernel as its independent reference,
in one module that pytest does not collect."""

from operator import itemgetter

from entrodim.linear import mask_positions


def projector(mask: int):
    """The tuple projection onto the positions of a subset mask, always a
    tuple: a tuple kernel kept here as the independent reference."""
    if mask <= 0:
        raise ValueError(f"subset mask {mask} is not a nonempty subset")
    idx = [p - 1 for p in mask_positions(mask)]
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx)


def reference_proj(point: tuple, mask: int) -> tuple:
    """point's coordinates at the positions of mask, one by one."""
    return tuple(point[i - 1] for i in mask_positions(mask))
