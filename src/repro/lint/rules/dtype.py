"""R002 — dtype discipline in kernel modules.

The PR 2 bug class: a dtype-less ``np.zeros(...)`` (default float64)
receiving float32 state silently doubles the memory traffic the paper's
Table 2 halves on purpose.  In modules marked ``# lint: kernel`` this
rule flags

* array constructors (``zeros/empty/ones/full/arange/array``) without
  an explicit ``dtype=`` (positional dtype accepted where the numpy
  signature allows it),
* arithmetic with an inline ``np.float64(...)``/``np.double(...)``
  scalar, which promotes any float32 operand, and
* **fp16 compute** — ``np.float16(...)`` / ``.astype(np.float16)``
  appearing as an arithmetic operand.  Half precision may only ever
  be a *storage* format: its 11-bit significand is far too short for
  flux or factor arithmetic, so every fp16 array must widen
  (``.astype(np.float32)``) before any operation touches it.
  Storing to fp16 (assignment, return, a constructor argument) is
  allowed — only arithmetic on the narrow form is flagged.

Fix by propagating the input dtype (``dtype=x.dtype``) or stating the
intended precision (``dtype=np.float64``) — either way the choice is
explicit and reviewable.  Suppress a deliberate exception with
``# lint: dtype-ok (reason)``.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import attr_chain, numpy_aliases
from repro.lint.model import ModuleInfo
from repro.lint.registry import Rule, rule

__all__ = ["DtypeDiscipline"]

#: constructor -> index of the positional dtype parameter, or None when
#: dtype is realistically keyword-only in idiomatic code.
_CTORS: dict[str, int | None] = {
    "zeros": 1, "empty": 1, "ones": 1, "full": 2, "array": 1, "arange": None,
}

_PROMOTING = frozenset({"float64", "double", "float_"})

_HALF = frozenset({"float16", "half"})

_ARITH = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
          ast.Pow, ast.MatMult)


def _has_dtype(call: ast.Call, pos: int | None) -> bool:
    if any(kw.arg == "dtype" for kw in call.keywords):
        return True
    return pos is not None and len(call.args) > pos


def _is_promoting_scalar(node: ast.expr, aliases: set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    return (chain is not None and len(chain) == 2 and chain[0] in aliases
            and chain[1] in _PROMOTING)


def _is_half(node: ast.expr, aliases: set[str]) -> bool:
    """``np.float16``/``np.half`` or the strings naming them."""
    if isinstance(node, ast.Constant):
        return node.value in _HALF
    chain = attr_chain(node)
    return (chain is not None and len(chain) == 2 and chain[0] in aliases
            and chain[1] in _HALF)


def _is_half_compute(node: ast.expr, aliases: set[str]) -> bool:
    """An fp16-valued expression: ``np.float16(...)`` or
    ``<expr>.astype(np.float16)`` (arithmetic on it is the violation;
    storing it is not)."""
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    if (chain is not None and len(chain) == 2 and chain[0] in aliases
            and chain[1] in _HALF):
        return True
    return (isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype" and node.args
            and _is_half(node.args[0], aliases))


@rule
class DtypeDiscipline(Rule):
    id = "R002"
    name = "dtype-discipline"
    summary = ("kernel-module array constructors state their dtype; no "
               "float64 scalar promotion in arithmetic; fp16 is "
               "storage-only (never an arithmetic operand)")

    def check_module(self, module: ModuleInfo):
        if not module.is_kernel or module.tree is None:
            return
        aliases = numpy_aliases(module.tree)
        if not aliases:
            return
        counts: dict = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if (chain is not None and len(chain) == 2
                        and chain[0] in aliases and chain[1] in _CTORS
                        and not _has_dtype(node, _CTORS[chain[1]])):
                    if not module.suppressed(self.id, node.lineno):
                        yield module.finding(
                            self.id, node.lineno, node.col_offset,
                            f"'{chain[0]}.{chain[1]}' without an explicit "
                            f"dtype= defaults to float64/platform-int — "
                            f"propagate the input dtype or state the "
                            f"precision", counts)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH):
                for side in (node.left, node.right):
                    if _is_promoting_scalar(side, aliases):
                        if not module.suppressed(self.id, node.lineno):
                            yield module.finding(
                                self.id, node.lineno, node.col_offset,
                                "float64 scalar constructor in arithmetic "
                                "promotes float32 arrays — use an in-dtype "
                                "scalar or a plain Python float", counts)
                    elif _is_half_compute(side, aliases):
                        if not module.suppressed(self.id, node.lineno):
                            yield module.finding(
                                self.id, node.lineno, node.col_offset,
                                "fp16 operand in arithmetic — half "
                                "precision is storage-only; widen with "
                                ".astype(np.float32) before computing",
                                counts)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op,
                                                                _ARITH):
                if _is_promoting_scalar(node.value, aliases):
                    if not module.suppressed(self.id, node.lineno):
                        yield module.finding(
                            self.id, node.lineno, node.col_offset,
                            "float64 scalar constructor in arithmetic "
                            "promotes float32 arrays — use an in-dtype "
                            "scalar or a plain Python float", counts)
                elif _is_half_compute(node.value, aliases):
                    if not module.suppressed(self.id, node.lineno):
                        yield module.finding(
                            self.id, node.lineno, node.col_offset,
                            "fp16 operand in arithmetic — half "
                            "precision is storage-only; widen with "
                            ".astype(np.float32) before computing",
                            counts)
