"""Type system for the data-parallel kernel IR.

The IR distinguishes *scalar* values (thread-local registers) from *array*
values (buffers in one of the device memory spaces).  Arrays are flat,
one-dimensional buffers — exactly like raw pointers in CUDA/OpenCL — and
multi-dimensional indexing is expressed arithmetically in the kernel, which
is what lets Paraprox's affine-access analysis recover tile geometry from
expressions of the shape ``(f + i) * w + (g + j)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DType:
    """A machine scalar type.

    Attributes:
        name: short C-like name used by the printer (``f32``, ``i32`` ...).
        np_dtype: the NumPy dtype string used by the interpreter.
        size: size in bytes, used by the memory/coalescing model.
        kind: one of ``"float"``, ``"int"``, ``"uint"``, ``"bool"``.
    """

    name: str
    np_dtype: str
    size: int
    kind: str

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    @property
    def is_integer(self) -> bool:
        return self.kind in ("int", "uint")

    @property
    def is_bool(self) -> bool:
        return self.kind == "bool"

    def to_numpy(self) -> np.dtype:
        return np.dtype(self.np_dtype)

    def __call__(self, x):
        """Host-side cast, so ``f32(x)`` works inside ``@device`` reference
        code executed as plain Python (inside kernels the frontend lowers the
        same spelling to an IR ``Cast``)."""
        if np.isscalar(x):
            return self.to_numpy().type(x)
        return np.asarray(x, dtype=self.np_dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


F32 = DType("f32", "float32", 4, "float")
F64 = DType("f64", "float64", 8, "float")
I32 = DType("i32", "int32", 4, "int")
I64 = DType("i64", "int64", 8, "int")
U32 = DType("u32", "uint32", 4, "uint")
BOOL = DType("bool", "bool", 1, "bool")

_DTYPES = {d.name: d for d in (F32, F64, I32, I64, U32, BOOL)}


def dtype_by_name(name: str) -> DType:
    """Look up a :class:`DType` by its short name (``"f32"`` etc.)."""
    try:
        return _DTYPES[name]
    except KeyError:
        raise KeyError(f"unknown dtype name {name!r}; known: {sorted(_DTYPES)}")


def from_numpy(np_dtype) -> DType:
    """Map a NumPy dtype to the corresponding IR :class:`DType`."""
    key = np.dtype(np_dtype).name
    for d in _DTYPES.values():
        if d.np_dtype == key:
            return d
    raise KeyError(f"no IR dtype for numpy dtype {key!r}")


def promote(a: DType, b: DType) -> DType:
    """C-style binary promotion used by the frontend for arithmetic.

    Rules (deliberately simple, sufficient for the benchmark kernels):
    float64 > float32 > int64 > uint32/int32 > bool, and mixing a float
    with any integer yields the float.
    """
    order = {"bool": 0, "i32": 1, "u32": 1, "i64": 2, "f32": 3, "f64": 4}
    ra, rb = order[a.name], order[b.name]
    if ra == rb:
        # u32 vs i32 -> i32 keeps things predictable for index math.
        if {a.name, b.name} == {"u32", "i32"}:
            return I32
        return a
    return a if ra > rb else b


@dataclass(frozen=True)
class ScalarType:
    """The type of a thread-local scalar value."""

    dtype: DType

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.dtype.name}"


#: Device memory spaces an array can live in.  ``global`` is off-chip DRAM,
#: ``shared`` is per-block scratchpad, ``constant`` is the broadcast cache.
MEMORY_SPACES = ("global", "shared", "constant")


@dataclass(frozen=True)
class ArrayType:
    """The type of a flat buffer parameter or shared-memory allocation.

    Attributes:
        dtype: element type.
        space: memory space the buffer lives in.
    """

    dtype: DType
    space: str = "global"

    def __post_init__(self) -> None:
        if self.space not in MEMORY_SPACES:
            raise ValueError(
                f"bad memory space {self.space!r}; expected one of {MEMORY_SPACES}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.dtype.name}[{self.space}]"


def is_array(t) -> bool:
    return isinstance(t, ArrayType)
