"""AST lock-discipline checker for the serving layer (rules ``lock-discipline``
and ``lock-io``).

The serving layer's concurrency contract is declared with the decorators in
:mod:`repro.analysis.annotations` and proven here, entirely from the AST:

* **lock-discipline** — inside a *lock-aware* class (one whose body touches
  ``self._lock`` / ``write_locked`` / ``read_locked``), every call to a
  ``@requires_write_lock`` method must be dominated by a
  ``with ...write_locked():`` (or ``with self._traced_write(...):``) block,
  or sit inside another ``@requires_write_lock`` body, which inherits the
  holder's obligation.  A ``@mutates_state`` entry point must acquire the
  write lock somewhere in its own body — a mutation path with no acquisition
  is the one-missed-``write_locked()`` bug this checker exists to catch.
* **lock-io** — no blocking I/O (snapshot serialization, directory fsyncs,
  socket sends, sleeps) may run while the write lock is held.  The checker
  walks the call graph from every locked region (bounded depth, resolving
  ``self`` calls and unique distinctive names within the analyzed set) and
  reports the first blocking call on each path, unless the enclosing
  function is decorated ``@io_under_lock_ok`` (the WAL append fsync and the
  O(1) segment seal are the two reviewed exceptions) or the call site
  carries a ``# repro: allow-lock-io`` pragma.

Call sites are matched by terminal attribute name, filtered to receivers
that reference the bare manager (``*manager*``, ``contents``, ``agraph``),
plain ``self`` calls, and bare-name calls — the shapes the serving layer
actually uses to reach annotated mutators.  Facade-to-facade calls
(``shard.commit(...)``) are deliberately not matched: those callees are
``@mutates_state`` and acquire their own lock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.report import Finding

#: Context-manager terminal names that enter the write lock.
LOCK_ENTER_NAMES = frozenset({"write_locked", "_traced_write"})

#: Raw acquisition calls that also count as entering the write lock.
ACQUIRE_NAMES = frozenset({"acquire_write"})

#: Attribute names whose presence makes a class "lock-aware" (analyzed).
LOCK_TOKEN_ATTRS = frozenset(
    {"_lock", "write_locked", "read_locked", "acquire_write", "acquire_read"}
)

#: Terminal call names that block (I/O or scheduling) and are forbidden
#: while the write lock is held.  ``_join_checkpoint`` is here because the
#: non-blocking-checkpoint design promises writers never wait on snapshot
#: serialization — joining the checkpoint thread under the lock would be
#: exactly that wait.
BLOCKING_NAMES = frozenset(
    {
        "fsync",
        "fdatasync",
        "fsync_dir",
        "sendall",
        "recv",
        "accept",
        "connect",
        "sleep",
        "dump_json_chunked",
        "read_previous_snapshot",
        "write_snapshot",
        "snapshot_from_frozen",
        "_join_checkpoint",
    }
)

#: Call names too generic to resolve through the cross-module call graph —
#: resolving ``thread.start()`` or ``handle.write()`` by bare name would
#: chase unrelated definitions and manufacture false positives.
NEVER_RESOLVE = frozenset(
    {
        "start",
        "stop",
        "run",
        "get",
        "put",
        "close",
        "open",
        "join",
        "append",
        "add",
        "send",
        "write",
        "read",
        "flush",
        "result",
        "submit",
        "acquire",
        "release",
        "copy",
        "update",
        "pop",
        "remove",
        "clear",
        "items",
        "keys",
        "values",
    }
)

#: Receiver-path tokens that identify a bare-manager access.
MANAGER_TOKENS = ("manager", "contents", "agraph")

_MAX_WALK_DEPTH = 5


@dataclass
class _FunctionInfo:
    path: str
    class_name: str | None
    node: ast.FunctionDef
    requires_write_lock: bool = False
    mutates_state: bool = False
    io_under_lock_ok: bool = False


@dataclass
class _Index:
    """Decorator harvest + call-graph index over the parsed modules."""

    functions: list[_FunctionInfo] = field(default_factory=list)
    by_name: dict[str, list[_FunctionInfo]] = field(default_factory=dict)
    requires_names: set[str] = field(default_factory=set)

    def add(self, info: _FunctionInfo) -> None:
        self.functions.append(info)
        self.by_name.setdefault(info.node.name, []).append(info)
        if info.requires_write_lock:
            self.requires_names.add(info.node.name)

    def resolve(self, name: str, class_name: str | None, self_call: bool) -> _FunctionInfo | None:
        """The definition a call to *name* reaches, when knowable.

        ``self`` calls resolve within the receiver's class; other calls
        resolve only when exactly one distinctive definition exists in the
        analyzed set.
        """
        candidates = self.by_name.get(name, [])
        if self_call:
            scoped = [info for info in candidates if info.class_name == class_name]
            return scoped[0] if len(scoped) == 1 else None
        if name in NEVER_RESOLVE:
            return None
        return candidates[0] if len(candidates) == 1 else None


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _terminal_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _receiver_parts(func: ast.expr) -> list[str]:
    """Dotted receiver path of an attribute call (``self._manager.commit`` ->
    ``["self", "_manager"]``)."""
    parts: list[str] = []
    node = func.value if isinstance(func, ast.Attribute) else None
    while node is not None:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            node = None
        else:
            # Subscripts / calls in the chain: keep what we have.
            node = getattr(node, "value", None) if isinstance(node, ast.Subscript) else None
    parts.reverse()
    return parts


def _receiver_matches(func: ast.expr) -> tuple[bool, bool]:
    """(matched, is_self_call) for the lock-discipline call-site filter."""
    if isinstance(func, ast.Name):
        return True, False  # bare-name call (module-level helper)
    parts = _receiver_parts(func)
    if parts == ["self"]:
        return True, True
    for part in parts:
        lowered = part.lower()
        if any(token in lowered for token in MANAGER_TOKENS):
            return True, False
    return False, False


def _with_enters_lock(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            name = _terminal_name(expr.func)
            if name in LOCK_ENTER_NAMES:
                return True
    return False


def _parse(paths: list[Path]) -> dict[Path, ast.Module]:
    modules: dict[Path, ast.Module] = {}
    for path in paths:
        modules[path] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return modules


def _harvest(modules: dict[Path, ast.Module]) -> _Index:
    index = _Index()
    for path, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        index.add(_info(str(path), node.name, item))
            elif isinstance(node, ast.Module):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        index.add(_info(str(path), None, item))
    return index


def _info(path: str, class_name: str | None, node: ast.FunctionDef) -> _FunctionInfo:
    names = {_decorator_name(dec) for dec in node.decorator_list}
    return _FunctionInfo(
        path=path,
        class_name=class_name,
        node=node,
        requires_write_lock="requires_write_lock" in names,
        mutates_state="mutates_state" in names,
        io_under_lock_ok="io_under_lock_ok" in names,
    )


def _class_is_lock_aware(node: ast.ClassDef) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr in LOCK_TOKEN_ATTRS:
            return True
    return False


class _RegionScanner:
    """Walks one function body tracking write-lock dominance lexically."""

    def __init__(
        self,
        checker: "LockChecker",
        info: _FunctionInfo,
        check_discipline: bool,
    ):
        self.checker = checker
        self.info = info
        self.check_discipline = check_discipline

    def scan(self) -> None:
        initially_locked = self.info.requires_write_lock
        for stmt in self.info.node.body:
            self._walk(stmt, initially_locked)

    def _walk(self, node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested definitions execute later, under their own rules
        if isinstance(node, ast.With):
            entered = _with_enters_lock(node)
            for item in node.items:
                self._walk(item.context_expr, locked)
            for stmt in node.body:
                self._walk(stmt, locked or entered)
            return
        if isinstance(node, ast.Call):
            self._check_call(node, locked)
        for child in ast.iter_child_nodes(node):
            self._walk(child, locked)

    def _check_call(self, node: ast.Call, locked: bool) -> None:
        name = _terminal_name(node.func)
        if name is None:
            return
        if self.check_discipline and not locked and name in self.checker.index.requires_names:
            self._check_discipline_call(node, name)
        if locked and not self.info.io_under_lock_ok:
            # An @io_under_lock_ok body IS the reviewed exception: its own
            # blocking calls are exempt, not just calls routed through it.
            self.checker.check_blocking(
                node, origin=self.info, call_path=[], depth=0, visited=set()
            )

    def _check_discipline_call(self, node: ast.Call, name: str) -> None:
        matched, _ = _receiver_matches(node.func)
        if matched:
            self.checker.findings.append(
                Finding(
                    rule="lock-discipline",
                    path=self.info.path,
                    line=node.lineno,
                    message=(
                        f"call to @requires_write_lock method {name}() in "
                        f"{self._context()} is not dominated by "
                        "`with ...write_locked():`"
                    ),
                )
            )

    def _context(self) -> str:
        if self.info.class_name:
            return f"{self.info.class_name}.{self.info.node.name}"
        return self.info.node.name


class LockChecker:
    """Run the lock-discipline and lock-io rules over a file set."""

    def __init__(self, analyze_paths: list[Path], annotation_paths: list[Path] | None = None):
        analyze = [Path(p) for p in analyze_paths]
        extra = [Path(p) for p in (annotation_paths or []) if Path(p) not in set(analyze)]
        self.analyze_modules = _parse(analyze)
        all_modules = dict(self.analyze_modules)
        all_modules.update(_parse(extra))
        self.index = _harvest(all_modules)
        # The call graph for lock-io resolves only within the analyzed set —
        # decorator-harvest-only files contribute names, not bodies.
        self.walk_index = _harvest(self.analyze_modules)
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        for path, tree in self.analyze_modules.items():
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                lock_aware = _class_is_lock_aware(node)
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    info = _info(str(path), node.name, item)
                    if lock_aware and info.mutates_state:
                        self._check_mutator_acquires(info)
                    _RegionScanner(self, info, check_discipline=lock_aware).scan()
            # Module-level functions: lock-io still applies to their locked
            # regions (a bare function may take a service's lock), but the
            # call-site discipline rule is class-scoped.
            for item in tree.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = _info(str(path), None, item)
                    _RegionScanner(self, info, check_discipline=False).scan()
        return self.findings

    # -- lock-discipline: entry points must acquire ----------------------------

    def _check_mutator_acquires(self, info: _FunctionInfo) -> None:
        for node in ast.walk(info.node):
            if isinstance(node, ast.With) and _with_enters_lock(node):
                return
            if isinstance(node, ast.Call):
                if _terminal_name(node.func) in ACQUIRE_NAMES:
                    return
        self.findings.append(
            Finding(
                rule="lock-discipline",
                path=info.path,
                line=info.node.lineno,
                message=(
                    f"@mutates_state method {info.class_name}.{info.node.name}() "
                    "never acquires the write lock (no `with ...write_locked():`, "
                    "`_traced_write`, or `acquire_write()` in its body)"
                ),
            )
        )

    # -- lock-io: blocking calls under the lock --------------------------------

    def check_blocking(
        self,
        node: ast.Call,
        origin: _FunctionInfo,
        call_path: list[str],
        depth: int,
        visited: set[str],
    ) -> None:
        name = _terminal_name(node.func)
        if name is None:
            return
        if name in BLOCKING_NAMES:
            via = " -> ".join(call_path + [name]) if call_path else name
            self.findings.append(
                Finding(
                    rule="lock-io",
                    path=origin.path,
                    line=self._origin_line(node, origin, depth),
                    message=(
                        f"blocking call {via}() reachable while the write lock is "
                        f"held in {self._origin_context(origin)}; move it off-lock "
                        "or mark the callee @io_under_lock_ok"
                    ),
                )
            )
            return
        if depth >= _MAX_WALK_DEPTH:
            return
        if isinstance(node.func, ast.Name):
            self_call = False  # bare-name helper: unique-definition resolution
        else:
            self_call = _receiver_parts(node.func) == ["self"]
        resolved = self.walk_index.resolve(
            name, origin.class_name if self_call else None, self_call
        )
        if resolved is None or resolved.io_under_lock_ok:
            return
        key = f"{resolved.class_name}.{resolved.node.name}@{resolved.path}"
        if key in visited:
            return
        visited.add(key)
        for child in ast.walk(resolved.node):
            if isinstance(child, ast.Call):
                self.check_blocking(
                    child,
                    origin=origin if depth else _origin_at(origin, node),
                    call_path=call_path + [name],
                    depth=depth + 1,
                    visited=visited,
                )

    @staticmethod
    def _origin_line(node: ast.Call, origin: _FunctionInfo, depth: int) -> int:
        # Depth 0: the blocking call itself.  Deeper: report at the locked
        # region's entry call (stored on the origin via _origin_at).
        if depth == 0:
            return node.lineno
        return getattr(origin, "_entry_line", origin.node.lineno)

    def _origin_context(self, origin: _FunctionInfo) -> str:
        if origin.class_name:
            return f"{origin.class_name}.{origin.node.name}"
        return origin.node.name


def _origin_at(origin: _FunctionInfo, node: ast.Call) -> _FunctionInfo:
    """A copy of *origin* that remembers the locked-region entry call line."""
    clone = _FunctionInfo(
        path=origin.path,
        class_name=origin.class_name,
        node=origin.node,
        requires_write_lock=origin.requires_write_lock,
        mutates_state=origin.mutates_state,
        io_under_lock_ok=origin.io_under_lock_ok,
    )
    clone._entry_line = node.lineno  # type: ignore[attr-defined]
    return clone


def check_lock_discipline(
    analyze_paths: list[str | Path], annotation_paths: list[str | Path] | None = None
) -> list[Finding]:
    """Run both lock rules; returns raw findings (pragmas applied by the driver)."""
    checker = LockChecker(
        [Path(p) for p in analyze_paths],
        [Path(p) for p in (annotation_paths or [])],
    )
    return checker.run()
