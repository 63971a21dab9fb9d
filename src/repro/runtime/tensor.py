"""Device tensors and tensor metadata.

A :class:`DeviceTensor` is the runtime's handle to an array in device
memory: shape, dtype, the device address, the memory region it lives in
("dram" or "sram" — the placement the compiler's tensor-placement pass
decided, Section 5), and quantisation parameters for INT8 data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.dtypes import DType, dtype as resolve_dtype


@dataclass(frozen=True)
class TensorMeta:
    """Shape/dtype/quantisation metadata, independent of storage."""

    shape: Tuple[int, ...]
    dtype: DType
    scale: float = 1.0
    zero_point: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "dtype", resolve_dtype(self.dtype))

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.numel * self.dtype.bytes

    def with_shape(self, shape: Tuple[int, ...]) -> "TensorMeta":
        return TensorMeta(shape, self.dtype, self.scale, self.zero_point)


@dataclass
class DeviceTensor:
    """An array resident in one device's memory."""

    meta: TensorMeta
    device: "object"            # MTIADevice; untyped to avoid a cycle
    addr: int
    region: str = "dram"        # "dram" or "sram"
    name: str = ""

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.meta.shape

    @property
    def dtype(self) -> DType:
        return self.meta.dtype

    @property
    def nbytes(self) -> int:
        return self.meta.nbytes

    def to_host(self) -> np.ndarray:
        """Copy the tensor back to the host as a numpy array."""
        return self.device.accelerator.download(
            self.addr, self.shape, self.dtype.numpy_dtype)

    def from_host(self, array: np.ndarray) -> "DeviceTensor":
        """Overwrite device contents from a host array."""
        array = np.ascontiguousarray(array, dtype=self.dtype.numpy_dtype)
        if array.shape != self.shape:
            raise ValueError(f"shape mismatch: {array.shape} vs {self.shape}")
        self.device.accelerator.memory.poke(self.addr, array)
        return self

    def __repr__(self) -> str:
        return (f"DeviceTensor({self.name or 'anon'}, shape={self.shape}, "
                f"dtype={self.dtype.name}, region={self.region}, "
                f"addr={self.addr:#x})")
