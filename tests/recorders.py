"""Test doubles that record how the scoring kernel treats its inputs."""

import numpy as np


class ProductRecorder(np.ndarray):
    """ndarray that records the dtype of every product it is the right operand of.

    The scoring kernel multiplies queries @ rows.T in every tier, and a
    view, transpose or cast of a recorder is a recorder, so the recorded
    dtype names the tier that ran: float32, float64 or int64.
    """

    dtypes = []

    def __rmatmul__(self, other):
        type(self).dtypes.append(np.result_type(other, self))
        return np.asarray(other) @ np.asarray(self)
