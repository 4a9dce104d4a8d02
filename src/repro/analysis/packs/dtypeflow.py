"""RPR012: flow-aware narrow-float discipline with inference_mode scopes.

A token-level ban on every ``float32`` spelling would make the
inference-only float32 serve path unexpressible, so narrow floats are
policed by a *dataflow* rule instead:

* a narrow-float **origin** (``np.float32(...)``, ``.astype(np.float32)``,
  ``dtype="float32"``, ``np.dtype("float32")``, or a narrow dtype
  *variable* flowing into a ``dtype=`` argument) is only legal inside a
  ``with inference_mode():`` block (:func:`repro.nn.module.inference_mode`);
* a narrow value created *inside* such a scope must not **escape** it:
  reading the variable after the block exits is flagged at the read;
* a function whose sanctioned narrow value leaves through ``return``
  is summarised as narrow-returning, and every resolved **call site**
  outside an inference scope is flagged — escape analysis across call
  edges, not just within one function.

Casting back (``.astype(np.float64)``, ``np.asarray(x, dtype=DEFAULT_DTYPE)``)
cleanses a value, which is exactly the cast-once serve recipe: enter
the scope, narrow, infer, widen (or emit non-array decisions), leave.

Approximations (documented, deliberately on the quiet side): values
are tracked through local names, arithmetic, subscripts, tuples and
resolved project calls — not through attributes, containers mutated
elsewhere, or unresolved calls.  Narrow dtype *strings* count only in
dtype positions, so ban tables and docs never false-positive.
"""

from __future__ import annotations

import ast
from types import SimpleNamespace
from typing import Iterator

from repro.analysis.dataflow.cfg import build_cfg
from repro.analysis.dataflow.engine import ForwardAnalysis, run_forward
from repro.analysis.dataflow.project import ModuleInfo, Project, dotted_name
from repro.analysis.rules import (
    Finding,
    ProjectContext,
    ProjectRule,
    register_project_rule,
)

__all__ = ["DtypeFlowRule"]

CLEAN = 0
SANCTIONED = 1  # narrow, born inside an inference_mode scope
TAINTED = 2  # narrow, born outside any inference_mode scope

_NARROW_ATTRS = frozenset(
    {"float32", "float16", "half", "single", "csingle", "complex64"}
)
_NARROW_STRINGS = frozenset({"float32", "float16", "complex64"})
_WIDE_ATTRS = frozenset({"float64", "double", "complex128", "cdouble", "longdouble"})
_WIDE_STRINGS = frozenset({"float64", "complex128"})
_WIDE_NAMES = frozenset({"DEFAULT_DTYPE", "DEFAULT_COMPLEX_DTYPE", "float", "complex"})


def _collect_sanctioned(tree: ast.Module) -> set[int]:
    """ids of every statement lexically inside a ``with inference_mode():``."""
    sanctioned: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if not any(_is_inference_item(item) for item in node.items):
            continue
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.stmt):
                    sanctioned.add(id(sub))
    return sanctioned


def _is_inference_item(item: ast.withitem) -> bool:
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        expr = expr.func
    dotted = dotted_name(expr)
    return dotted is not None and dotted.split(".")[-1] == "inference_mode"


def _dtype_const_kind(node: ast.AST) -> str | None:
    """'narrow'/'wide' for a literal dtype expression, None if unknown."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value in _NARROW_STRINGS:
            return "narrow"
        if node.value in _WIDE_STRINGS:
            return "wide"
        return None
    dotted = dotted_name(node)
    if dotted is None:
        return None
    parts = dotted.split(".")
    if parts[0] in ("np", "numpy") and len(parts) >= 2:
        if parts[-1] in _NARROW_ATTRS:
            return "narrow"
        if parts[-1] in _WIDE_ATTRS:
            return "wide"
    if parts[-1] in _WIDE_NAMES:
        return "wide"
    return None


def _frames(tree: ast.Module) -> list[tuple[str, object]]:
    """Every analysis frame: the module body, each class body, each def.

    Nested defs become their own frames; the enclosing frame treats
    them as opaque statements.
    """
    frames: list[tuple[str, object]] = [("<module>", SimpleNamespace(body=tree.body))]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            frames.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            frames.append(
                (node.name, SimpleNamespace(body=[
                    s
                    for s in node.body
                    if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]))
            )
    return frames


def _stmt_value_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expression roots a statement *evaluates* (headers only)."""
    if isinstance(stmt, ast.Assign):
        return [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Assert):
        return [stmt.test] + ([stmt.msg] if stmt.msg else [])
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [
        child
        for child in ast.iter_child_nodes(stmt)
        if isinstance(child, ast.expr)
    ]


class _Emit:
    """Finding sink used only during the final (post-fixpoint) pass."""

    def __init__(self) -> None:
        self.events: list[tuple[ast.AST, str]] = []

    def add(self, node: ast.AST, message: str) -> None:
        self.events.append((node, message))


class _NarrowFlow(ForwardAnalysis):
    """Forward may-analysis: which locals hold narrow-float values."""

    def __init__(
        self,
        module: ModuleInfo,
        project: Project,
        sanctioned: set[int],
        narrow_fns: set[str],
    ) -> None:
        self.module = module
        self.project = project
        self.sanctioned = sanctioned
        self.narrow_fns = narrow_fns

    # -- expression evaluation -------------------------------------------

    def eval_expr(
        self,
        expr: ast.expr,
        state: dict[str, object],
        sanc: bool,
        emit: _Emit | None,
    ) -> int:
        new_narrow = SANCTIONED if sanc else TAINTED
        if isinstance(expr, ast.Name):
            return int(state.get(expr.id, CLEAN))  # type: ignore[arg-type]
        if isinstance(expr, ast.Attribute):
            # A bare ``np.float32`` attribute is a narrow *value* (it
            # taints whatever it flows into) but not a reported origin:
            # ban tables and doc strings may name it freely.
            return new_narrow if _dtype_const_kind(expr) == "narrow" else CLEAN
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state, sanc, emit)
        if isinstance(expr, ast.BinOp):
            return max(
                self.eval_expr(expr.left, state, sanc, emit),
                self.eval_expr(expr.right, state, sanc, emit),
            )
        if isinstance(expr, ast.UnaryOp):
            return self.eval_expr(expr.operand, state, sanc, emit)
        if isinstance(expr, ast.Subscript):
            return self.eval_expr(expr.value, state, sanc, emit)
        if isinstance(expr, ast.IfExp):
            return max(
                self.eval_expr(expr.body, state, sanc, emit),
                self.eval_expr(expr.orelse, state, sanc, emit),
            )
        if isinstance(expr, ast.BoolOp):
            return max(self.eval_expr(v, state, sanc, emit) for v in expr.values)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            levels = [self.eval_expr(e, state, sanc, emit) for e in expr.elts]
            return max(levels) if levels else CLEAN
        if isinstance(expr, ast.Starred):
            return self.eval_expr(expr.value, state, sanc, emit)
        if isinstance(expr, ast.NamedExpr):
            lvl = self.eval_expr(expr.value, state, sanc, emit)
            if isinstance(expr.target, ast.Name):
                state[expr.target.id] = lvl
            return lvl
        return CLEAN

    def _eval_call(
        self,
        call: ast.Call,
        state: dict[str, object],
        sanc: bool,
        emit: _Emit | None,
    ) -> int:
        new_narrow = SANCTIONED if sanc else TAINTED
        func = call.func
        dotted = dotted_name(func)
        parts = dotted.split(".") if dotted else []

        # .astype(dtype): origin when narrow, cleanser when wide.
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            dtype_arg = call.args[0] if call.args else _kwarg(call, "dtype")
            if dtype_arg is not None:
                kind = _dtype_const_kind(dtype_arg)
                if kind == "narrow":
                    if emit is not None and not sanc:
                        emit.add(
                            call,
                            f"narrow-float cast .astype({ast.unparse(dtype_arg)}) "
                            "outside inference_mode()",
                        )
                    return new_narrow
                if kind == "wide":
                    return CLEAN
                lvl = self.eval_expr(dtype_arg, state, sanc, emit)
                if lvl > CLEAN:
                    if emit is not None and not sanc:
                        emit.add(
                            call,
                            "narrow dtype variable flows into .astype() "
                            "outside inference_mode()",
                        )
                    return new_narrow
            return self.eval_expr(func.value, state, sanc, emit)

        # np.float32(x) constructors / np.dtype("float32").
        if parts and parts[0] in ("np", "numpy"):
            if parts[-1] in _NARROW_ATTRS:
                if emit is not None and not sanc:
                    emit.add(
                        call, f"narrow-float constructor {dotted}() outside inference_mode()"
                    )
                return new_narrow
            if parts[-1] == "dtype" and call.args:
                kind = _dtype_const_kind(call.args[0])
                if kind == "narrow":
                    if emit is not None and not sanc:
                        emit.add(
                            call,
                            f"narrow dtype np.dtype({ast.unparse(call.args[0])}) "
                            "outside inference_mode()",
                        )
                    return new_narrow
                if kind == "wide":
                    return CLEAN
                lvl = self.eval_expr(call.args[0], state, sanc, emit)
                if lvl > CLEAN:
                    if emit is not None and not sanc:
                        emit.add(
                            call,
                            "narrow dtype variable flows into np.dtype() "
                            "outside inference_mode()",
                        )
                    return new_narrow

        # dtype= keyword on any call (array constructors mostly).
        dtype_kw = _kwarg(call, "dtype")
        if dtype_kw is not None:
            kind = _dtype_const_kind(dtype_kw)
            if kind == "narrow":
                if emit is not None and not sanc:
                    emit.add(
                        call,
                        f"narrow dtype {ast.unparse(dtype_kw)} passed as dtype= "
                        "outside inference_mode()",
                    )
                return new_narrow
            if kind == "wide":
                return CLEAN
            lvl = self.eval_expr(dtype_kw, state, sanc, emit)
            if lvl > CLEAN:
                if emit is not None and not sanc:
                    emit.add(
                        call,
                        "narrow dtype variable flows into dtype= "
                        "outside inference_mode()",
                    )
                return new_narrow

        # Resolved project calls: interprocedural narrow returns.
        resolved = self.project.resolve_function(self.module, func)
        if resolved is not None and resolved.qualname in self.narrow_fns:
            if emit is not None and not sanc:
                emit.add(
                    call,
                    f"call to {resolved.qualname}() returns float32 data "
                    "outside inference_mode()",
                )
            return new_narrow
        return CLEAN

    # -- transfer ---------------------------------------------------------

    def transfer(self, stmt: ast.stmt, state: dict[str, object]) -> dict[str, object]:
        state = dict(state)
        self.apply(stmt, state, emit=None)
        return state

    def apply(
        self, stmt: ast.stmt, state: dict[str, object], emit: _Emit | None
    ) -> None:
        """Evaluate ``stmt``'s headers against ``state``, mutating it."""
        sanc = id(stmt) in self.sanctioned
        if isinstance(stmt, ast.Assign):
            lvl = self.eval_expr(stmt.value, state, sanc, emit)
            for target in stmt.targets:
                self._bind(target, lvl, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            lvl = self.eval_expr(stmt.value, state, sanc, emit)
            self._bind(stmt.target, lvl, state)
        elif isinstance(stmt, ast.AugAssign):
            lvl = self.eval_expr(stmt.value, state, sanc, emit)
            if isinstance(stmt.target, ast.Name):
                old = int(state.get(stmt.target.id, CLEAN))  # type: ignore[arg-type]
                state[stmt.target.id] = max(old, lvl)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            lvl = self.eval_expr(stmt.iter, state, sanc, emit)
            self._bind(stmt.target, lvl, state)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.pop(target.id, None)
        else:
            for root in _stmt_value_exprs(stmt):
                self.eval_expr(root, state, sanc, emit)

    def _bind(self, target: ast.expr, lvl: int, state: dict[str, object]) -> None:
        if isinstance(target, ast.Name):
            state[target.id] = lvl
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, lvl, state)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, lvl, state)


def _kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


@register_project_rule
class DtypeFlowRule(ProjectRule):
    """RPR012: narrow floats may exist only inside inference_mode scopes.

    See the module docstring for the full semantics: origins, scope
    escapes, and narrow-returning call edges are each flagged at the
    precise site the float64 contract breaks.
    """

    code = "RPR012"
    name = "dtype-flow"
    description = (
        "flow-aware float64 discipline: narrow-float origins, scope escapes, "
        "and narrow-returning calls outside an explicit inference_mode() scope"
    )
    hint = (
        "wrap the narrow path in `with inference_mode():` (repro.nn) and cast "
        "back to float64 before the value leaves the scope, or use "
        "DEFAULT_DTYPE"
    )

    _MAX_SUMMARY_ROUNDS = 8

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        """Yield findings across the whole project."""
        project = ctx.project
        sanctioned = {
            name: _collect_sanctioned(info.tree)
            for name, info in project.modules.items()
        }

        narrow_fns: set[str] = set()
        for _ in range(self._MAX_SUMMARY_ROUNDS):
            updated = self._summaries(project, sanctioned, narrow_fns)
            if updated == narrow_fns:
                break
            narrow_fns = updated

        for name, info in project.modules.items():
            yield from self._emit_module(info, project, sanctioned[name], narrow_fns)

    # -- summary pass -----------------------------------------------------

    def _summaries(
        self,
        project: Project,
        sanctioned: dict[str, set[int]],
        narrow_fns: set[str],
    ) -> set[str]:
        out = set(narrow_fns)
        for info in project.modules.values():
            for fn in info.functions.values():
                flow = _NarrowFlow(info, project, sanctioned[info.name], narrow_fns)
                cfg = build_cfg(fn.node)
                per_stmt = run_forward(cfg, flow)
                if self._returns_sanctioned_narrow(cfg, per_stmt, flow):
                    out.add(fn.qualname)
        return out

    def _returns_sanctioned_narrow(self, cfg, per_stmt, flow: _NarrowFlow) -> bool:
        for bid, block in cfg.blocks.items():
            for stmt, entry in zip(block.stmts, per_stmt[bid]):
                if not isinstance(stmt, ast.Return) or stmt.value is None:
                    continue
                if id(stmt) not in flow.sanctioned:
                    continue
                state = dict(entry)
                lvl = flow.eval_expr(stmt.value, state, True, None)
                if lvl >= SANCTIONED:
                    return True
        return False

    # -- emission pass ----------------------------------------------------

    def _emit_module(
        self,
        info: ModuleInfo,
        project: Project,
        sanctioned: set[int],
        narrow_fns: set[str],
    ) -> Iterator[Finding]:
        flow = _NarrowFlow(info, project, sanctioned, narrow_fns)
        for _name, frame in _frames(info.tree):
            cfg = build_cfg(frame)  # type: ignore[arg-type]
            per_stmt = run_forward(cfg, flow)
            for bid, block in cfg.blocks.items():
                for stmt, entry in zip(block.stmts, per_stmt[bid]):
                    yield from self._emit_stmt(info, flow, stmt, entry)

    def _emit_stmt(
        self,
        info: ModuleInfo,
        flow: _NarrowFlow,
        stmt: ast.stmt,
        entry: dict[str, object],
    ) -> Iterator[Finding]:
        sanc = id(stmt) in flow.sanctioned
        emit = _Emit()
        state = dict(entry)
        flow.apply(stmt, state, emit=emit)
        for node, message in emit.events:
            yield self.finding_at(info.path, node, message)
        if sanc:
            return
        # Escape reads: a sanctioned-narrow variable used after its
        # inference_mode block exited.
        seen: set[tuple[str, int]] = set()
        for root in _stmt_value_exprs(stmt):
            for node in ast.walk(root):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and entry.get(node.id) == SANCTIONED
                ):
                    key = (node.id, getattr(node, "lineno", 0))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding_at(
                        info.path,
                        node,
                        f"float32 value {node.id!r} escapes its inference_mode() "
                        "scope; cast back to float64 before leaving the scope",
                    )
