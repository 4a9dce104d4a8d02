"""Project-specific lint rules over the stdlib :mod:`ast`.

Each rule encodes an invariant the reproduction's credibility rests on
but that no stock tool checks: seeded randomness everywhere, the
forward/backward cache contract of :mod:`repro.nn`, a single float64
numeric standard, and shape-documented spectrum producers.

Rules are pluggable: subclass :class:`LintRule`, decorate with
:func:`register_rule`, and the CLI picks the rule up automatically.
Codes are stable (``RPR001``...) so suppressions and CI logs stay
meaningful across versions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.dataflow.callgraph import CallGraph, build_call_graph
from repro.analysis.dataflow.project import Project

__all__ = [
    "FileContext",
    "Finding",
    "LintRule",
    "PROJECT_RULES",
    "ProjectContext",
    "ProjectRule",
    "RULES",
    "register_project_rule",
    "register_rule",
]


@dataclass(frozen=True)
class Finding:
    """One lint violation.

    Attributes:
        path: file the violation was found in.
        line: 1-based line number.
        col: 0-based column.
        code: stable rule code (``RPR001``...).
        message: what is wrong, specific to the site.
        hint: how to fix it, generic to the rule.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: str
    source: str
    tree: ast.Module


class LintRule:
    """Base class for a registered rule.

    Subclasses set the class attributes and implement :meth:`check`.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    hint: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            hint=self.hint,
        )


RULES: dict[str, LintRule] = {}
"""Registry mapping rule code to rule instance (single-file rules)."""

PROJECT_RULES: dict[str, "ProjectRule"] = {}
"""Registry of project-wide (flow-aware) rules, keyed by code."""

def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to :data:`RULES`.

    Raises:
        ValueError: on a duplicate or malformed code.
    """
    if not re.fullmatch(r"RPR\d{3}", cls.code):
        raise ValueError(f"rule code must look like RPR001, got {cls.code!r}")
    if cls.code in RULES or cls.code in PROJECT_RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


@dataclass
class ProjectContext:
    """Everything a project rule may inspect: the whole linted tree.

    Attributes:
        project: parsed modules + symbol tables + function index.
    """

    project: Project
    _call_graph: CallGraph | None = field(default=None, repr=False)

    @property
    def call_graph(self) -> CallGraph:
        """The project call graph, built once on first use."""
        if self._call_graph is None:
            self._call_graph = build_call_graph(self.project)
        return self._call_graph


class ProjectRule(LintRule):
    """Base class for whole-project (interprocedural) rules.

    Unlike :class:`LintRule`, the single ``check_project`` call sees
    every linted file at once — call graph included — so rules can
    follow values across assignments, returns, and call edges.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Project rules never run per-file."""
        return iter(())

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        """Yield findings across the whole project."""
        raise NotImplementedError

    def finding_at(
        self, path: str, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` in ``path``."""
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            hint=self.hint,
        )


def register_project_rule(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a rule to :data:`PROJECT_RULES`.

    Raises:
        ValueError: on a duplicate or malformed code.
    """
    if not re.fullmatch(r"RPR\d{3}", cls.code):
        raise ValueError(f"rule code must look like RPR001, got {cls.code!r}")
    if cls.code in RULES or cls.code in PROJECT_RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    PROJECT_RULES[cls.code] = cls()
    return cls


def _dotted(node: ast.AST) -> str | None:
    """Dotted name of a Name/Attribute chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_LEGACY_RANDOM = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "beta",
        "binomial",
        "chisquare",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "gumbel",
        "laplace",
        "logistic",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "normal",
        "pareto",
        "poisson",
        "power",
        "rayleigh",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
        "RandomState",
    }
)


@register_rule
class LegacyRandomRule(LintRule):
    """RPR001: no module-state numpy randomness, no unseeded generators.

    The paper's calibration ablation (97% vs 52%) is only trustworthy
    when every run is reproducible, so every stochastic path must flow
    through an explicitly seeded ``np.random.default_rng(seed)`` or a
    :class:`numpy.random.Generator` threaded in from the caller.
    """

    code = "RPR001"
    name = "legacy-random"
    description = (
        "np.random module-state calls and unseeded default_rng() are banned; "
        "use np.random.default_rng(seed) or thread a Generator through"
    )
    hint = "seed explicitly: np.random.default_rng(<seed>) or accept a Generator argument"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        called_with_args: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and (node.args or node.keywords):
                called_with_args.add(id(node.func))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = _dotted(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) != 3 or parts[0] not in ("np", "numpy") or parts[1] != "random":
                continue
            leaf = parts[2]
            if leaf in _LEGACY_RANDOM:
                yield self.finding(
                    ctx, node, f"legacy module-state call {dotted}() shares global RNG state"
                )
            elif leaf == "default_rng" and id(node) not in called_with_args:
                yield self.finding(
                    ctx, node, f"{dotted} without an explicit seed is not reproducible"
                )


@register_rule
class ForwardBackwardPairRule(LintRule):
    """RPR002: Module subclasses define forward and backward together.

    ``repro.nn`` layers cache forward activations for the backward
    pass; a subclass overriding only one half silently breaks that
    contract (it would mix its own forward with an inherited backward
    reading a stale or missing cache).
    """

    code = "RPR002"
    name = "forward-backward-pair"
    description = "a Module subclass defining forward must define backward, and vice versa"
    hint = "implement the missing half (or inherit both from the parent layer)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {(_dotted(b) or "").rsplit(".", 1)[-1] for b in node.bases}
            if not bases & {"Module", "Sequential"}:
                continue
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            has_fwd, has_bwd = "forward" in methods, "backward" in methods
            if has_fwd != has_bwd:
                present, missing = (
                    ("forward", "backward") if has_fwd else ("backward", "forward")
                )
                yield self.finding(
                    ctx,
                    node,
                    f"class {node.name} defines {present} but not {missing}; "
                    "the forward-then-backward cache contract needs both",
                )


@register_rule
class MutableDefaultRule(LintRule):
    """RPR003: no mutable default arguments."""

    code = "RPR003"
    name = "mutable-default"
    description = "list/dict/set literals (or constructors) as argument defaults are shared state"
    hint = "default to None and construct inside the function body"

    _CONSTRUCTORS = frozenset({"list", "dict", "set"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            return name in self._CONSTRUCTORS
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    where = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {where}() is shared across calls",
                    )


@register_rule
class SwallowedExceptionRule(LintRule):
    """RPR004: no bare ``except:`` and no exception-swallowing handlers.

    Silent handlers are exactly how non-finite values sneak past the
    DSP chain; degradation must be explicit (abstains, masks, reports).
    """

    code = "RPR004"
    name = "swallowed-exception"
    description = "bare except: and `except ...: pass` hide failures the pipeline must surface"
    hint = "catch a specific exception and handle or re-raise it; never pass silently"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(ctx, node, "bare except: catches everything, even SystemExit")
                continue
            if len(node.body) == 1:
                only = node.body[0]
                is_pass = isinstance(only, ast.Pass)
                is_ellipsis = (
                    isinstance(only, ast.Expr)
                    and isinstance(only.value, ast.Constant)
                    and only.value.value is Ellipsis
                )
                if is_pass or is_ellipsis:
                    yield self.finding(
                        ctx, node, "exception handler swallows the error without a trace"
                    )


@register_rule
class AllExportsRule(LintRule):
    """RPR005: ``__init__`` exports and ``__all__`` must match exactly.

    ``test_public_api`` walks ``__all__``; a name listed but unbound
    breaks `from repro.x import *`, while a public binding missing from
    ``__all__`` is an undocumented API users cannot discover.  A package
    with a module-level ``__getattr__`` (PEP 562) binds names on first
    access; there a name also counts as bound when it appears as a
    string literal outside ``__all__`` (its lookup table), so a
    misspelt ``__all__`` entry is still flagged.
    """

    code = "RPR005"
    name = "all-exports"
    description = "__all__ entries must be bound in the __init__, and public bindings listed"
    hint = "keep __all__ and the import list in lockstep (sorted, two-way complete)"

    def _bound_names(self, tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    names.add(alias.asname or alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
        return names

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        if not ctx.path.endswith("__init__.py"):
            return
        all_node: ast.Assign | None = None
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                all_node = node
        bound = self._bound_names(ctx.tree)
        public = {n for n in bound if not n.startswith("_")}
        if all_node is None:
            if public:
                yield self.finding(
                    ctx,
                    ctx.tree.body[0] if ctx.tree.body else ctx.tree,
                    f"__init__ binds {len(public)} public name(s) but declares no __all__",
                )
            return
        if not isinstance(all_node.value, (ast.List, ast.Tuple)) or not all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in all_node.value.elts
        ):
            yield self.finding(ctx, all_node, "__all__ must be a literal list of strings")
            return
        exported = [e.value for e in all_node.value.elts]
        if any(isinstance(n, ast.FunctionDef) and n.name == "__getattr__" for n in ctx.tree.body):
            # PEP 562: the string literals outside __all__ are the lookup table.
            bound = bound | {
                leaf.value
                for node in ctx.tree.body
                if node is not all_node
                for leaf in ast.walk(node)
                if isinstance(leaf, ast.Constant)
                and isinstance(leaf.value, str)
                and leaf.value.isidentifier()
            }
        for name in exported:
            if name not in bound:
                yield self.finding(
                    ctx, all_node, f"__all__ lists {name!r} but the module never binds it"
                )
        listed = set(exported)
        for name in sorted(public - listed):
            yield self.finding(
                ctx, all_node, f"public name {name!r} is bound but missing from __all__"
            )
        dupes = {n for n in exported if exported.count(n) > 1}
        for name in sorted(dupes):
            yield self.finding(ctx, all_node, f"__all__ lists {name!r} more than once")


@register_rule
class NoPrintRule(LintRule):
    """RPR007: no ``print`` in library code.

    ``scripts/`` and ``examples/`` own the terminal;
    library modules must stay silent so services embedding them control
    their own logging.
    """

    code = "RPR007"
    name = "no-print"
    description = "print() in library code; reserve stdout for scripts/ and examples/"
    hint = "return the value, raise, or leave reporting to the calling script"

    _ALLOWED_PARTS = frozenset({"scripts", "examples"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        parts = set(re.split(r"[\\/]", ctx.path))
        if parts & self._ALLOWED_PARTS:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(ctx, node, "print() call in library code")


@register_rule
class ShapeContractRule(LintRule):
    """RPR008: spectrum producers document their output shape.

    Downstream layers are sized off the frame shapes (``(F, n_tags,
    180)`` pseudospectrum, ``(F, n_tags, N)`` periodogram); every
    function producing such frames must carry an explicit
    ``shape: (...)`` tag in its docstring so the contract is checkable
    at review time.
    """

    code = "RPR008"
    name = "shape-contract"
    description = (
        "functions producing pseudospectrum/periodogram/spectrum frames need a "
        "`shape: (...)` docstring tag"
    )
    hint = 'add a docstring tag like ``shape: (n_tags, 180)`` to the Returns section'

    _NAME_PATTERN = re.compile(r"pseudospectrum|periodogram|spectrum_frames")
    _TAG_PATTERN = re.compile(r"shape:\s*`{0,2}\(")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._NAME_PATTERN.search(node.name):
                continue
            doc = ast.get_docstring(node)
            if doc is None or not self._TAG_PATTERN.search(doc):
                yield self.finding(
                    ctx,
                    node,
                    f"{node.name}() produces spectrum data but documents no shape: (...) tag",
                )


@register_rule
class MonotonicClockRule(LintRule):
    """RPR010: duration and deadline math must not use ``time.time``.

    The wall clock jumps (NTP slews, DST, manual adjustment); an
    interval measured with ``time.time()`` can be negative or wildly
    wrong, which silently corrupts retry backoff budgets, breaker
    reset timeouts, and per-window deadlines.  ``time.monotonic`` (or
    ``time.perf_counter`` for profiling) is immune.  The rare
    legitimate use — stamping an *epoch timestamp* for export — takes
    a line suppression.
    """

    code = "RPR010"
    name = "monotonic-clock"
    description = (
        "time.time() in library code; durations and deadlines must use "
        "time.monotonic (or time.perf_counter for profiling)"
    )
    hint = (
        "use time.monotonic() for durations/deadlines, time.perf_counter() "
        "for profiling; suppress only genuine epoch timestamps"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if _dotted(node) == "time.time":
                yield self.finding(
                    ctx,
                    node,
                    "time.time() follows the adjustable wall clock; "
                    "interval math needs a monotonic clock",
                )


@register_rule
class PublicDocstringRule(LintRule):
    """RPR009: every public function and class carries a docstring.

    ``scripts/gen_api_docs.py`` renders ``docs/API.md`` straight from
    docstrings, so an undocumented public name is a hole in the
    generated reference.  Private names (leading underscore, which
    covers dunders) and definitions nested inside function bodies are
    exempt; property setters/deleters inherit the getter's doc.
    """

    code = "RPR009"
    name = "public-docstring"
    description = "public module-level and class-level functions/classes need docstrings"
    hint = "add a docstring (summary line at minimum); docs/API.md is generated from it"

    _EXEMPT_PARTS = frozenset({"tests", "scripts", "examples"})
    _EXEMPT_DECORATORS = frozenset({"setter", "deleter"})

    def _is_exempt_accessor(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for dec in node.decorator_list:
            if isinstance(dec, ast.Attribute) and dec.attr in self._EXEMPT_DECORATORS:
                return True
        return False

    def _check_body(self, ctx: FileContext, body: list[ast.stmt]) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    yield self.finding(
                        ctx, node, f"public class {node.name} has no docstring"
                    )
                yield from self._check_body(ctx, node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") or self._is_exempt_accessor(node):
                    continue
                if ast.get_docstring(node) is None:
                    yield self.finding(
                        ctx, node, f"public function {node.name}() has no docstring"
                    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        parts = set(re.split(r"[\\/]", ctx.path))
        if parts & self._EXEMPT_PARTS:
            return
        yield from self._check_body(ctx, ctx.tree.body)


@register_rule
class BarePoolRule(LintRule):
    """RPR011: no bare ``multiprocessing.Pool`` in library code.

    A bare pool has no liveness probing (a dead worker hangs ``map``
    forever) and no crash attribution.  Library code that needs
    worker processes uses :mod:`concurrent.futures` with explicit
    liveness handling, or one spawn-context ``Process`` per task
    whose exit code the caller reads, as :mod:`repro.experiments.runner`
    does.
    """

    code = "RPR011"
    name = "bare-pool"
    description = (
        "bare multiprocessing.Pool in library code; use concurrent.futures "
        "or one spawn-context Process per task instead"
    )
    hint = (
        "use concurrent.futures with explicit liveness handling, or one "
        "spawn-context Process per task whose exitcode you check (as "
        "repro.experiments.runner does), so crashes are detected and "
        "attributed instead of hanging a Pool"
    )

    _BANNED_ATTRS = frozenset(
        {
            "multiprocessing.Pool",
            "multiprocessing.pool.Pool",
            "multiprocessing.dummy.Pool",
            "mp.Pool",
        }
    )
    _BANNED_MODULES = frozenset(
        {"multiprocessing", "multiprocessing.pool", "multiprocessing.dummy"}
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                if _dotted(node) in self._BANNED_ATTRS:
                    yield self.finding(
                        ctx,
                        node,
                        "bare multiprocessing.Pool hides worker crashes; "
                        "use concurrent.futures or a spawn-context Process",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module in self._BANNED_MODULES and any(
                    alias.name == "Pool" for alias in node.names
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"importing Pool from {node.module} hides worker "
                        "crashes; use concurrent.futures or a spawn-context "
                        "Process",
                    )
