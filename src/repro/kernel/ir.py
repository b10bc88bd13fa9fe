"""IR node classes for data-parallel kernels.

The IR is a conventional typed expression/statement tree, deliberately close
to the subset of C that CUDA/OpenCL kernels are written in: scalar locals,
flat array loads/stores, counted ``for`` loops, structured ``if``, calls to
math builtins and to *device* functions, thread/block intrinsics, atomics
and barriers.  Paraprox's pattern detectors and approximation transforms
are all tree algorithms over these nodes.

Expressions carry their :class:`~repro.kernel.types.DType`; statements do
not.  Nodes are plain dataclasses; transforms build rewritten copies rather
than mutating shared trees (see :mod:`repro.kernel.visitors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .types import BOOL, ArrayType, DType, ScalarType

# ---------------------------------------------------------------------------
# Operator vocabularies
# ---------------------------------------------------------------------------

#: Arithmetic / bitwise binary operators (result dtype = promoted operand).
ARITH_OPS = ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr")

#: Comparison operators (result dtype = bool).
CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")

#: Short-circuit-free logical operators on bools.
LOGIC_OPS = ("land", "lor")

BINARY_OPS = ARITH_OPS + CMP_OPS + LOGIC_OPS

UNARY_OPS = ("neg", "lnot", "bnot")

#: Read-modify-write atomic operations (paper §3.3.2: add, min, max, inc,
#: and, or, xor mark a loop as a reduction).
ATOMIC_OPS = ("add", "min", "max", "inc", "and", "or", "xor")

#: Commutative+associative reduction operators recognised in ``a = a op b``.
REDUCTION_OPS = ("add", "mul", "min", "max", "and", "or", "xor")


class Node:
    """Common base class so ``isinstance(x, Node)`` covers the whole IR."""

    __slots__ = ()


class Expr(Node):
    """Base class for expressions; all expressions expose ``dtype``."""

    __slots__ = ()


class Stmt(Node):
    """Base class for statements."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Const(Expr):
    """A literal scalar constant."""

    value: object
    dtype: DType


@dataclass
class Var(Expr):
    """A reference to a scalar local or parameter by name."""

    name: str
    dtype: DType


@dataclass
class ArrayRef(Expr):
    """A reference to an array parameter or shared allocation by name.

    ``ArrayRef`` never appears as a value by itself; it is the ``array``
    operand of :class:`Load`, :class:`Store` and atomics.
    """

    name: str
    type: ArrayType

    @property
    def dtype(self) -> DType:
        return self.type.dtype


@dataclass
class BinOp(Expr):
    """A binary operation ``left <op> right``."""

    op: str
    left: Expr
    right: Expr
    dtype: DType

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")


@dataclass
class UnOp(Expr):
    """A unary operation."""

    op: str
    operand: Expr
    dtype: DType

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")


@dataclass
class Cast(Expr):
    """An explicit conversion to ``dtype``."""

    operand: Expr
    dtype: DType


@dataclass
class Select(Expr):
    """Branch-free per-thread selection ``cond ? if_true : if_false``.

    This is how kernels express thread-divergent choices without divergent
    control flow; it maps to ``np.where`` in the interpreter.
    """

    cond: Expr
    if_true: Expr
    if_false: Expr
    dtype: DType


@dataclass
class Load(Expr):
    """An element read ``array[index]``."""

    array: ArrayRef
    index: Expr

    @property
    def dtype(self) -> DType:
        return self.array.dtype


@dataclass
class Call(Expr):
    """A call to a math builtin, intrinsic, or device function.

    ``func`` is a name resolved against :mod:`repro.kernel.intrinsics`
    first and then against the module's device functions.
    """

    func: str
    args: List[Expr]
    dtype: DType


#: Thread/block intrinsics take no arguments and are modelled as Calls with
#: these names.  ``global_id`` = blockIdx*blockDim+threadIdx; the _x/_y
#: variants address the two axes of a 2-D launch.
THREAD_INTRINSICS = (
    "global_id",
    "thread_id",
    "block_id",
    "block_dim",
    "grid_dim",
    "global_id_x",
    "global_id_y",
    "thread_id_x",
    "thread_id_y",
    "block_id_x",
    "block_id_y",
    "block_dim_x",
    "block_dim_y",
    "grid_dim_x",
    "grid_dim_y",
)

#: The thread intrinsics whose value differs across the threads of a grid;
#: the block and grid extents are uniform over the whole launch.
VARYING_INTRINSICS = frozenset(
    name for name in THREAD_INTRINSICS if not name.startswith(("block_dim", "grid_dim"))
)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Assign(Stmt):
    """Assignment to a scalar local (declared implicitly on first write)."""

    target: str
    value: Expr


@dataclass
class Store(Stmt):
    """An element write ``array[index] = value``."""

    array: ArrayRef
    index: Expr
    value: Expr


@dataclass
class AtomicRMW(Stmt):
    """``atomic_<op>(&array[index], value)`` read-modify-write."""

    op: str
    array: ArrayRef
    index: Expr
    value: Expr

    def __post_init__(self) -> None:
        if self.op not in ATOMIC_OPS:
            raise ValueError(f"unknown atomic op {self.op!r}")


@dataclass
class If(Stmt):
    """Structured conditional.  The condition may be thread-divergent; the
    interpreter executes both arms under masks in that case."""

    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    """A counted loop ``for (var = start; var < stop; var += step)``.

    Loop bounds must be *uniform* (identical across threads); divergent
    iteration is expressed with ``If``/``Select`` in the body.  This is the
    construct Paraprox's reduction perforation rewrites (it multiplies
    ``step`` by the skipping rate).
    """

    var: str
    start: Expr
    stop: Expr
    step: Expr
    body: List[Stmt]


@dataclass
class Return(Stmt):
    """Return from a device function (kernels return nothing)."""

    value: Optional[Expr] = None


@dataclass
class Barrier(Stmt):
    """``__syncthreads()`` — a block-wide barrier.

    The vectorized interpreter gives statements lockstep semantics, so the
    barrier is a no-op at runtime, but it is kept in the IR because the
    three-phase scan template is recognised partly by its barrier structure.
    """


@dataclass
class SharedAlloc(Stmt):
    """Declaration of a per-block shared-memory array."""

    name: str
    shape: Tuple[int, ...]
    dtype: DType


# ---------------------------------------------------------------------------
# Functions and modules
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """A formal parameter of a kernel or device function."""

    name: str
    type: object  # ScalarType | ArrayType

    @property
    def is_array(self) -> bool:
        return isinstance(self.type, ArrayType)


@dataclass
class Function:
    """A kernel (``kind="kernel"``) or device function (``kind="device"``).

    Device functions are pure candidates for approximate memoization; the
    purity analysis in :mod:`repro.analysis.purity` decides whether they
    qualify.
    """

    name: str
    params: List[Param]
    body: List[Stmt]
    kind: str = "kernel"
    return_type: Optional[ScalarType] = None

    def __post_init__(self) -> None:
        if self.kind not in ("kernel", "device"):
            raise ValueError(f"bad function kind {self.kind!r}")

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"{self.name} has no parameter {name!r}")

    @property
    def array_params(self) -> List[Param]:
        return [p for p in self.params if p.is_array]

    @property
    def scalar_params(self) -> List[Param]:
        return [p for p in self.params if not p.is_array]


@dataclass
class Module:
    """A compilation unit: one or more kernels plus their device functions."""

    functions: Dict[str, Function] = field(default_factory=dict)

    def add(self, fn: Function) -> None:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name!r} in module")
        self.functions[fn.name] = fn

    def kernels(self) -> List[Function]:
        return [f for f in self.functions.values() if f.kind == "kernel"]

    def device_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if f.kind == "device"]

    def __getitem__(self, name: str) -> Function:
        return self.functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.functions


# ---------------------------------------------------------------------------
# Convenience constructors (used heavily by transforms and tests)
# ---------------------------------------------------------------------------


def const_like(value: object, dtype: DType) -> Const:
    """Build a constant of ``dtype`` from a Python number."""
    if dtype.is_float:
        value = float(value)
    elif dtype.is_integer:
        value = int(value)
    elif dtype.is_bool:
        value = bool(value)
    return Const(value, dtype)


def bool_const(value: bool) -> Const:
    return Const(bool(value), BOOL)


def binop(op: str, left: Expr, right: Expr) -> BinOp:
    """Build a :class:`BinOp` computing the result dtype automatically."""
    from .types import promote

    if op in CMP_OPS or op in LOGIC_OPS:
        return BinOp(op, left, right, BOOL)
    return BinOp(op, left, right, promote(left.dtype, right.dtype))
