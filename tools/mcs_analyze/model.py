"""Shared source model for mcs_analyze.

Both frontends (the libclang one when `clang.cindex` is importable, the
token/structural one otherwise) lower each translation unit into these
records; every check runs against this model, so check logic is written
once and never depends on which frontend produced the facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Finding:
    path: str  # repo-relative when possible
    line: int
    check: str
    severity: str  # 'error' | 'warning'
    message: str
    context: str = ""  # normalized source line text (baseline key)
    suppressed: bool = False
    baselined: bool = False

    def key(self):
        return (self.path, self.check, self.context)

    def sort_key(self):
        # (path, check, context) first: the same triple keys the baseline, so
        # ANALYZE_findings.json diffs stay stable under unrelated line drift.
        return (self.path, self.check, self.context, self.line, self.message)


@dataclass
class Member:
    name: str
    type_text: str
    line: int
    has_init: bool = False
    guarded_by: str | None = None  # MCS_GUARDED_BY argument text
    is_static: bool = False
    is_mutable: bool = False
    is_thread_local: bool = False
    is_const: bool = False
    arena_stable: bool = False  # MCS_ARENA_STABLE: intentional view transfer


@dataclass
class Method:
    name: str
    line: int
    access: str  # 'public' | 'protected' | 'private'
    is_const: bool = False
    is_static: bool = False
    is_special: bool = False  # ctor/dtor/operator/defaulted/deleted
    externally_serialized: bool = False
    arena_stable: bool = False  # MCS_ARENA_STABLE: returned view is vetted
    body: tuple | None = None  # (start_tok, end_tok) into the file's tokens


@dataclass
class ClassInfo:
    name: str
    line: int
    path: str
    members: dict = field(default_factory=dict)  # name -> Member
    methods: list = field(default_factory=list)  # [Method]
    bases: list = field(default_factory=list)  # direct base class names
    owns_arena: bool = False  # MCS_OWNS_ARENA: fields die with the arena

    def member(self, name):
        return self.members.get(name)

    def method_named(self, name):
        return [m for m in self.methods if m.name == name]


@dataclass(eq=False)  # identity hash: call-graph nodes live in dict keys
class FunctionDef:
    """A function body: free function, out-of-class method def, or the body
    attached to an inline method. `cls_name` is None for free functions."""

    name: str
    cls_name: str | None
    line: int
    path: str
    body: tuple  # (start_tok, end_tok)
    is_const: bool = False
    externally_serialized: bool = False
    arena_stable: bool = False  # MCS_ARENA_STABLE on the definition
    params: list = field(default_factory=list)  # [(type_text, name)]
    locals: dict = field(default_factory=dict)  # name -> type_text


@dataclass
class RangeFor:
    line: int
    container_tokens: list  # tokens of the range expression
    body: tuple  # (start_tok, end_tok)
    func: FunctionDef | None


@dataclass
class Lambda:
    line: int
    captures: list  # [('ref'|'val'|'this'|'default_ref'|'default_val', name)]
    body: tuple
    context_callee: str | None  # e.g. 'emplace_back', 'submit', 'thread'
    context_receiver: str | None  # e.g. 'workers_'
    func: FunctionDef | None  # enclosing function definition
    params: list = field(default_factory=list)  # [(type_text, name)]


@dataclass
class GlobalVar:
    """Namespace-scope variable definition (including anonymous namespaces)."""

    name: str
    type_text: str
    line: int
    path: str
    is_const: bool = False
    is_thread_local: bool = False
    is_static: bool = False  # internal linkage; irrelevant to shard safety
    arena_stable: bool = False  # MCS_ARENA_STABLE: intentional view transfer


@dataclass
class FileModel:
    path: Path
    rel: str
    tokens: list
    classes: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    loops: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    globals: list = field(default_factory=list)  # [GlobalVar]
    # line -> set of check names allowed there ('*' = all)
    suppressions: dict = field(default_factory=dict)


class Project:
    """All analyzed files plus a cross-file class index (headers define the
    classes whose methods live in the .cpp files)."""

    def __init__(self, files):
        self.files = files
        self.class_index: dict[str, ClassInfo] = {}
        self.function_index: dict[str, list[FunctionDef]] = {}
        self._callgraph = None
        for fm in files:
            for ci in fm.classes:
                # First definition wins; redefinitions across TUs are rare
                # in this codebase and harmless for lookup purposes.
                self.class_index.setdefault(ci.name, ci)
            for fn in fm.functions:
                self.function_index.setdefault(fn.name, []).append(fn)

    def callgraph(self):
        """Project-wide call graph, built once and shared by every
        interprocedural check (hotpath-alloc, shard-escape, lock-order)."""
        if self._callgraph is None:
            import callgraph as callgraph_mod

            self._callgraph = callgraph_mod.CallGraph(self)
        return self._callgraph

    def suppressed(self, fm: FileModel, line: int, check: str) -> bool:
        allowed = fm.suppressions.get(line, ())
        return "*" in allowed or check in allowed
