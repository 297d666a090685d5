"""2-D convolution via im2col lowering.

Large **inference** batches are processed in row tiles: the im2col
column matrix for a full fused-evaluation batch (e.g. 512 LeNet-5 rows
≈ 40 MB) blows the cache and used to make the conv forward *slower* per
row beyond ~128-row batches.  The lowering now walks sample tiles sized
to a fixed scratch budget, reusing one persistent scratch buffer across
batches (and across rounds), so the working set stays cache-resident at
any batch size.  Training always takes the exact historical path
(single materialised column matrix, cached for backward) — the serial
reference kernel's gradients are bit-for-bit unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_fns
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Conv2d"]

#: Scratch budget for one im2col tile.  Sized to keep tile columns plus
#: the tile's output slab comfortably inside L2/L3 on commodity CPUs;
#: per-instance override via ``Conv2d.tile_bytes``.
_DEFAULT_TILE_BYTES = 2 * 1024 * 1024


class Conv2d(Module):
    """Cross-correlation layer over ``(N, C, H, W)`` batches.

    The forward pass lowers the input to a column matrix (one row per
    output pixel) and performs a single matmul with the flattened filter
    bank — the standard im2col strategy that keeps the hot path inside
    BLAS.  The backward pass is the exact adjoint: a matmul for the filter
    gradient and a :func:`repro.nn.functional.col2im` scatter-add for the
    input gradient.  ``backward(..., input_grad=False)`` skips the input
    gradient's matmul and scatter.

    Parameters
    ----------
    in_channels, out_channels:
        Filter bank dimensions.
    kernel_size:
        Square kernel extent.
    rng:
        Generator for weight init.
    stride, padding:
        Standard convolution hyper-parameters (symmetric padding).
    bias:
        Add a per-channel bias (default ``True``).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError(
                "in_channels, out_channels, kernel_size, stride must be positive"
            )
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init_fns.kaiming_uniform(rng, shape, dtype=dtype))
        self.has_bias = bias
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias = Parameter(
                init_fns.uniform_bias(rng, fan_in, (out_channels,), dtype=dtype)
            )
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        #: Reusable scratch buffer for one inference tile's columns.
        self._scratch: np.ndarray | None = None
        self.tile_bytes = _DEFAULT_TILE_BYTES

    def _tile_rows(self, out_h: int, out_w: int, dtype: np.dtype) -> int:
        """Samples per im2col tile under the scratch budget (min 1)."""
        per_sample = (
            out_h
            * out_w
            * self.in_channels
            * self.kernel_size
            * self.kernel_size
            * np.dtype(dtype).itemsize
        )
        return max(1, self.tile_bytes // max(per_sample, 1))

    def _tile_cols(self, x_tile: np.ndarray) -> np.ndarray:
        """im2col of a sample tile into the persistent scratch buffer."""
        n = x_tile.shape[0]
        out_h, out_w = self.output_shape(x_tile.shape[2], x_tile.shape[3])
        rows = n * out_h * out_w
        width = self.in_channels * self.kernel_size * self.kernel_size
        if (
            self._scratch is None
            or self._scratch.shape[1] != width
            or self._scratch.shape[0] < rows
            or self._scratch.dtype != x_tile.dtype
        ):
            self._scratch = np.empty((rows, width), dtype=x_tile.dtype)
        cols = self._scratch[:rows]
        im2col(
            x_tile,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
            out=cols,
        )
        return cols

    def output_shape(self, h: int, w: int) -> tuple[int, int]:
        """Spatial output extent for an ``h × w`` input."""
        return (
            conv_output_size(h, self.kernel_size, self.stride, self.padding),
            conv_output_size(w, self.kernel_size, self.stride, self.padding),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        out_h, out_w = self.output_shape(x.shape[2], x.shape[3])
        tile = self._tile_rows(out_h, out_w, x.dtype)
        flat_w = self.weight.data.reshape(self.out_channels, -1)
        self._x_shape = x.shape
        if self.training or n <= tile:
            # Training (and anything that fits one tile) keeps the
            # historical lowering bit for bit: one materialised column
            # matrix, cached for backward.  Tiling is an inference-path
            # optimisation only — training batches are loader-sized and
            # backward reuses the cached columns.
            cols, _ = im2col(
                x, self.kernel_size, self.kernel_size, self.stride, self.padding
            )
            self._cols = cols if self.training else None
            out = cols @ flat_w.T  # (N*OH*OW, out_channels)
            if self.has_bias:
                out += self.bias.data
            return out.reshape(n, out_h, out_w, self.out_channels).transpose(
                0, 3, 1, 2
            )
        # Inference on a large fused batch: walk sample tiles through the
        # persistent scratch so the working set stays cache-resident.
        self._cols = None
        out = np.empty(
            (n, out_h, out_w, self.out_channels),
            dtype=np.result_type(x.dtype, flat_w.dtype),
        )
        for start in range(0, n, tile):
            stop = min(start + tile, n)
            cols = self._tile_cols(x[start:stop])
            part = cols @ flat_w.T
            if self.has_bias:
                part += self.bias.data
            out[start:stop] = part.reshape(
                stop - start, out_h, out_w, self.out_channels
            )
        return out.transpose(0, 3, 1, 2)

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        # (N, F, OH, OW) -> (N*OH*OW, F), matching the forward column layout.
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self.weight.accumulate_grad(
            (grad_flat.T @ self._cols).reshape(self.weight.data.shape)
        )
        if self.has_bias:
            self.bias.accumulate_grad(grad_flat.sum(axis=0))
        x_shape = self._x_shape
        self._cols = None
        self._x_shape = None
        if not input_grad:
            return None
        flat_w = self.weight.data.reshape(self.out_channels, -1)
        return col2im(
            grad_flat @ flat_w,
            x_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
