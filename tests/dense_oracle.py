"""Dense-kernel oracle of the convolution, on retinas up to 8x8.

A bank expands into the equivalent translation-invariant dense table; the
table's activation field, an explicit sum over every input pixel, must agree
with ``convolve_features``.
"""

import numpy as np

from cogaction.features import FilterBank, as_grid


def dense_kernel_oracle(table: np.ndarray, data) -> np.ndarray:
    """Activation field of an unrestricted (non-convolutional) kernel table.

    ``table[i, j, rx, cx, ry, cy]`` couples output feature ``i`` at pixel
    ``(rx, cx)`` to input channel ``j`` at pixel ``(ry, cy)``:

        a_i(x, t) = 1/n + sum_j sum_y table[i, j, x, y] * input_j(y, t)

    Cost is O((H*W)^2); restricted to retinas up to 8x8.  Used as a test
    oracle: when the table encodes a translation-invariant kernel it must
    agree with ``convolve_features``.
    """
    grid = as_grid(data)
    table = np.asarray(table, dtype=np.float64)
    _, height, width, channels = grid.shape
    if height > 8 or width > 8:
        raise ValueError(f"dense oracle limited to 8x8 retinas, got {height}x{width}")
    if table.ndim != 6 or table.shape[1:] != (channels, height, width, height, width):
        raise ValueError(
            f"table shape {table.shape} does not match (n, {channels}, {height}, {width}, "
            f"{height}, {width})"
        )
    n = table.shape[0]
    act = np.einsum("ijrcsd,tsdj->trci", table, grid)
    return act + 1.0 / n


def dense_table_from_bank(bank: FilterBank, height: int, width: int) -> np.ndarray:
    """Expand a bank into the equivalent translation-invariant dense table."""
    if bank.kernel > min(height, width):
        raise ValueError("kernel larger than the retina: wrap would alias taps")
    reach = (bank.kernel - 1) // 2
    table = np.zeros((bank.n, bank.m_in, height, width, height, width), dtype=np.float64)
    rows = np.arange(height)
    cols = np.arange(width)
    for ia in range(bank.kernel):
        for ib in range(bank.kernel):
            a = ia - reach
            b = ib - reach
            ry = np.mod(rows - b, height)
            cy = np.mod(cols - a, width)
            table[:, :, rows[:, None], cols[None, :], ry[:, None], cy[None, :]] += \
                bank.taps[:, :, ia, ib, None, None]
    return table
