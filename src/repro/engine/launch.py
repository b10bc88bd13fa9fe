"""Launch geometry, argument binding and backend selection for kernels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Union

import numpy as np

from .._options import BACKENDS, validate_backend  # noqa: F401  (re-exported)
from ..errors import ExecutionError
from ..kernel import ir
from ..kernel.frontend import KernelFn


@dataclass(frozen=True)
class Grid:
    """A launch configuration: ``blocks x blocks_y`` blocks of
    ``threads_per_block x threads_per_block_y`` threads — CUDA's
    ``<<<dim3(bx, by), dim3(tx, ty)>>>``, with the y extents defaulting to
    1 for the common 1-D launch.

    Threads are linearized x-fastest (then y, then block x, then block y),
    so warps run along the x axis, exactly as on hardware — the coalescing
    statistics depend on this.
    """

    blocks: int
    threads_per_block: int
    blocks_y: int = 1
    threads_per_block_y: int = 1

    def __post_init__(self) -> None:
        if min(
            self.blocks, self.threads_per_block, self.blocks_y, self.threads_per_block_y
        ) < 1:
            raise ExecutionError(
                f"grid must be positive, got blocks=({self.blocks}, {self.blocks_y}) "
                f"threads=({self.threads_per_block}, {self.threads_per_block_y})"
            )

    @property
    def block_threads(self) -> int:
        return self.threads_per_block * self.threads_per_block_y

    @property
    def total_blocks(self) -> int:
        return self.blocks * self.blocks_y

    @property
    def threads(self) -> int:
        return self.total_blocks * self.block_threads

    @property
    def is_2d(self) -> bool:
        return self.blocks_y > 1 or self.threads_per_block_y > 1

    @staticmethod
    def for_elements(n: int, threads_per_block: int = 256) -> "Grid":
        """The usual one-thread-per-element configuration, rounded up."""
        blocks = max(1, (n + threads_per_block - 1) // threads_per_block)
        return Grid(blocks, threads_per_block)

    @staticmethod
    def for_image(width: int, height: int, tx: int = 16, ty: int = 16) -> "Grid":
        """One thread per pixel over 2-D tiles, rounded up per axis."""
        return Grid(
            blocks=max(1, (width + tx - 1) // tx),
            threads_per_block=tx,
            blocks_y=max(1, (height + ty - 1) // ty),
            threads_per_block_y=ty,
        )


class Binding:
    """How one kernel's launch arguments bind to its parameters, resolved
    once per kernel: each parameter's name, whether it is an array, and
    its NumPy dtype.  :meth:`bind` still checks every call's arguments."""

    __slots__ = ("kernel", "names", "params")

    def __init__(self, fn: ir.Function) -> None:
        self.kernel = fn.name
        self.names = tuple(p.name for p in fn.params)
        self.params = tuple(
            (p.name, p.is_array, p.type.dtype.to_numpy()) for p in fn.params
        )

    def bind(self, args: Union[Sequence, Dict[str, object]]) -> Dict[str, object]:
        """See :func:`bind_arguments`."""
        names = self.names
        if isinstance(args, dict):
            missing = [name for name in names if name not in args]
            extra = [k for k in args if k not in names]
            if missing or extra:
                raise ExecutionError(
                    f"{self.kernel}: bad arguments "
                    f"(missing={missing}, unexpected={extra})"
                )
            ordered = [args[name] for name in names]
        else:
            ordered = list(args)
            if len(ordered) != len(names):
                raise ExecutionError(
                    f"{self.kernel} takes {len(names)} arguments, got {len(ordered)}"
                )

        bound: Dict[str, object] = {}
        for (name, is_array, dtype), value in zip(self.params, ordered):
            if not is_array:
                bound[name] = dtype.type(value)
                continue
            if not isinstance(value, np.ndarray):
                raise ExecutionError(
                    f"{self.kernel}: argument {name!r} must be a numpy array"
                )
            if value.dtype != dtype:
                raise ExecutionError(
                    f"{self.kernel}: array {name!r} has dtype {value.dtype}, "
                    f"kernel declares {dtype}"
                )
            if not value.flags.c_contiguous:
                raise ExecutionError(
                    f"{self.kernel}: array {name!r} must be C-contiguous "
                    "(kernel writes must alias the caller's buffer)"
                )
            bound[name] = value.reshape(-1)
        return bound


def bind_arguments(
    fn: ir.Function, args: Union[Sequence, Dict[str, object]]
) -> Dict[str, object]:
    """Match positional or keyword launch arguments against kernel params.

    Array parameters must be NumPy arrays with the declared element dtype;
    they are flattened *as views* so kernel stores are visible to the caller
    (the device-memory model of CUDA, without the copies).  Scalars are cast
    to the declared dtype.  A launch plan holds its kernel's
    :class:`Binding` instead of rebuilding it per call.
    """
    return Binding(fn).bind(args)


def resolve_kernel(kernel: Union[KernelFn, ir.Function]) -> ir.Function:
    if isinstance(kernel, KernelFn):
        return kernel.fn
    if isinstance(kernel, ir.Function):
        return kernel
    raise ExecutionError(f"not a kernel: {kernel!r}")


def resolve_module(kernel: Union[KernelFn, ir.Function], module=None) -> ir.Module:
    if module is not None:
        return module
    if isinstance(kernel, KernelFn):
        return kernel.module
    single = ir.Module()
    single.add(kernel)
    return single


class Program:
    """Host-side orchestration of a multi-kernel pipeline.

    Applications such as the three-phase parallel scan launch several
    kernels with host logic in between; a ``Program`` subclass implements
    :meth:`run` using :func:`repro.engine.launch` and accumulates all launch
    traces into ``self.trace`` so the cost model prices the pipeline as a
    whole.
    """

    def __init__(self) -> None:
        from .trace import Trace

        self.trace = Trace()

    def launch(self, kernel, grid: Grid, args, **kwargs):
        from .interpreter import launch as _launch

        sub_trace = _launch(kernel, grid, args, **kwargs)
        self.trace.merge(sub_trace)
        return sub_trace

    def reset_trace(self) -> None:
        from .trace import Trace

        self.trace = Trace()
