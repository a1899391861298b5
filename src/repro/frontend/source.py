"""Guest-source capture.

The paper's WootinJ reads Java *bytecode*, so it needs no source.  Python has
no comparably analyzable bytecode contract, so we read the method source via
``inspect`` and parse it with ``ast`` — the analysis level is the same
(method bodies of ``@wootin`` classes), only the carrier differs.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

from repro.errors import LoweringError
from repro.lang import types as _t

__all__ = ["method_ast", "SourceInfo"]

_CACHE: dict[object, "SourceInfo"] = {}


class SourceInfo:
    """Parsed source of one guest function."""

    def __init__(self, func):
        # @global_kernel wraps the original in an interpreted-launch shim;
        # analysis always works on the underlying kernel body.
        func = getattr(func, "__wj_kernel_impl__", func)
        self.func = func
        try:
            src = inspect.getsource(func)
        except (OSError, TypeError) as exc:
            raise LoweringError(
                f"cannot retrieve source of {func!r}; guest methods must be "
                f"defined in importable modules"
            ) from exc
        src = textwrap.dedent(src)
        module = ast.parse(src)
        if not module.body or not isinstance(module.body[0], ast.FunctionDef):
            raise LoweringError(f"unexpected source structure for {func!r}")
        self.tree: ast.FunctionDef = module.body[0]
        self.filename = getattr(func, "__code__", None) and func.__code__.co_filename
        self.firstlineno = getattr(func, "__code__", None) and func.__code__.co_firstlineno
        self.globals = getattr(func, "__globals__", {})
        #: which syntactic rule check (``"method"`` / ``"ctor"``, see
        #: ``repro.frontend.rules``) this AST has passed.  The verdict is a
        #: pure function of the tree, so a pass is remembered; a violation
        #: never is — it must raise again on every attempt.
        self.rules_passed: str | None = None
        self._annotations: dict[str, object] = {}

    def resolve_annotation(self, ann):
        """``types.resolve_annotation`` for an annotation of this function;
        string annotations (``from __future__ import annotations``) are
        evaluated against the module globals once per distinct string."""
        if not isinstance(ann, str):
            return _t.resolve_annotation(ann, owner=self.func)
        ty = self._annotations.get(ann)
        if ty is None:
            ty = self._annotations[ann] = _t.resolve_annotation(
                ann, owner=self.func)
        return ty

    def where(self, node: ast.AST | None = None) -> str:
        """Human-readable source location for error messages."""
        line = ""
        if node is not None and hasattr(node, "lineno") and self.firstlineno:
            # method source was dedented and re-parsed from line 1
            line = f":{self.firstlineno + node.lineno - 1}"
        return f"{self.func.__qualname__} ({self.filename}{line})"


def method_ast(func) -> SourceInfo:
    """Parse (and cache) the AST of a guest function."""
    info = _CACHE.get(func)
    if info is None:
        info = SourceInfo(func)
        _CACHE[func] = info
    return info
