"""The regression loss: PathRank trains with mean-squared error against
the weighted-Jaccard ground-truth scores."""

from __future__ import annotations

from repro.errors import ShapeError
from repro.nn.module import Module
from repro.nn.tensor import Tensor, as_tensor

__all__ = ["MSELoss"]


class MSELoss(Module):
    """Mean squared error, the paper's regression objective."""

    def forward(self, prediction: Tensor, target: Tensor | object) -> Tensor:
        target = as_tensor(target)
        if prediction.shape != target.shape:
            raise ShapeError(
                f"loss shapes differ: prediction {prediction.shape} vs target {target.shape}"
            )
        diff = prediction - target
        return (diff * diff).mean()
