"""Every option in ``src/`` has a caller that sets it.

An *option* is a parameter with a default, or a field with a default of a
frozen dataclass.  It is *set* when some call in ``src/``, ``benchmarks/``
or ``examples/`` gives it a value:

* by keyword, with a value other than the same-named variable;
* by position, when a call to a function of that name passes enough
  positional arguments to reach it.

Pure forwarding (``x=x`` where ``x`` is a parameter of the calling
function, ``x=self.x`` inside a class with an option ``x``) is not a set
of its own: the forwarded option is set only where the forwarder is.
Callees are matched by name alone (a method by its name, a class by its
name), so two functions that share a name share their setters; the sweep
can miss an unset option, never flag a set one.

An option that no caller sets is deleted, or it is listed in ``ALLOWED``
with one of a closed list of reasons: a production caller the sweep does
not read (``path:line``), a test seam, a deployment setting, or the
simulator's calibrated model.  Run this file as a script to print the
whole sweep::

    python tests/test_options_have_callers.py
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

SEAM = "test seam: a test substitutes a fake"
SMALL = "test seam: a test substitutes a small input for the paper-scale one"
DEPLOYMENT = "deployment setting"
MODEL = "the simulator's calibrated model"
CALLER = "production caller: "

#: Options that no caller sets but that stay, with the reason.  A class
#: entry covers every field of the class.
ALLOWED: dict[str, str] = {
    "repro.bench.tables.table3_network_connections.workload": SMALL,
    "repro.bench.tables.sec45_partition_micro.num_keys": SMALL,
    "repro.bench.tables.sec45_partition_micro.runs": SMALL,
    "repro.bench.tables.ablation_skew_bound.bounds": SMALL,
    "repro.bench.tables.ablation_skew_bound.num_reduces": SMALL,
    "repro.bench.tables.ablation_skew_bound.workload": SMALL,
    "repro.bench.tables.ablation_store_vs_recompute.num_reduces": SMALL,
    "repro.bench.tables.ablation_store_vs_recompute.workload": SMALL,
    "repro.bench.workloads.query1_workload.num_splits": SMALL,
    "repro.bench.workloads.query2_workload.num_splits": SMALL,
    "repro.bench.workloads.skew_workload.num_splits": SMALL,
    "repro.bench.workloads.small_query2.shape": SMALL,
    "repro.bench.workloads.small_query2.threshold_sigmas": SMALL,
    "repro.bench.workloads.small_query2.seed": SMALL,
    "repro.cli.main.argv": SEAM,
    "repro.dfs.filesystem.SimulatedDFS.__init__.num_hosts": DEPLOYMENT,
    "repro.dfs.filesystem.SimulatedDFS.__init__.block_size": DEPLOYMENT,
    "repro.dfs.filesystem.SimulatedDFS.__init__.seed": SEAM,
    "repro.dfs.namenode.NameNode.__init__.replication": DEPLOYMENT,
    "repro.dfs.namenode.NameNode.__init__.block_size": DEPLOYMENT,
    "repro.dfs.namenode.NameNode.__init__.seed": SEAM,
    "repro.obs.live.bus.EventBus.__init__.clock": SEAM,
    "repro.obs.live.progress.ProgressTracker.eta_seconds.now": SEAM,
    "repro.obs.live.progress.ProgressTracker.snapshot.now": SEAM,
    "repro.obs.live.stream.read_events.job": CALLER + ".github/workflows/ci.yml:607",
    "repro.obs.trace.LogicalClock.__init__.step": SEAM,
    "repro.sim.cluster.ClusterConfig": MODEL,
    "repro.sim.costmodel.CostModel": MODEL,
}


def _allowed(qualname: str) -> str | None:
    return ALLOWED.get(qualname) or ALLOWED.get(qualname.rsplit(".", 1)[0])


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        if isinstance(dec, ast.Call) and _name(dec.func) == "dataclass":
            for kw in dec.keywords:
                if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                    return bool(kw.value.value)
    return False


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _field_has_default(stmt: ast.AnnAssign) -> bool:
    """Whether a dataclass field has a default and is an ``__init__`` argument."""
    value = stmt.value
    if value is None:
        return False
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        kws = {kw.arg: kw.value for kw in value.keywords}
        init = kws.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False
        return "default" in kws or "default_factory" in kws
    return True


@dataclass(frozen=True)
class _Option:
    """One option: where it is defined and the callee name that reaches it."""

    qualname: str
    callee: str
    arg: str
    position: int | None  # index among positional args, self excluded
    path: Path
    line: int
    field: bool = False  # a dataclass field, which ``replace`` can set


def _definitions(path: Path, tree: ast.Module):
    """Every option defined in one module, and every required argument."""
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    required: set[tuple[str, str]] = set()
    options: list[_Option] = []

    def visit_function(fn, qual: str, callee: str, is_method: bool) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        if is_method and positional and not _is_static(fn):
            positional = positional[1:]
        first_default = len(positional) - len(args.defaults)
        for i, a in enumerate(positional):
            if i >= first_default:
                options.append(_Option(f"{qual}.{a.arg}", callee, a.arg, i,
                                       path, a.lineno))
            else:
                required.add((callee, a.arg))
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                options.append(_Option(f"{qual}.{a.arg}", callee, a.arg, None,
                                       path, a.lineno))
            else:
                required.add((callee, a.arg))

    def visit(body, prefix: str, cls: ast.ClassDef | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                qual = f"{prefix}.{node.name}"
                if _is_frozen_dataclass(node):
                    index = 0
                    for stmt in node.body:
                        if not (isinstance(stmt, ast.AnnAssign)
                                and isinstance(stmt.target, ast.Name)):
                            continue
                        if "ClassVar" in ast.unparse(stmt.annotation):
                            continue
                        name = stmt.target.id
                        if _field_has_default(stmt):
                            options.append(_Option(f"{qual}.{name}", node.name,
                                                   name, index, path,
                                                   stmt.lineno, field=True))
                        elif stmt.value is None:
                            required.add((node.name, name))
                        index += 1
                visit(node.body, qual, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{node.name}"
                if cls is not None and node.name in ("__init__", "__new__"):
                    visit_function(node, qual, cls.name, True)
                else:
                    visit_function(node, qual, node.name, cls is not None)
                visit(node.body, qual, None)

    visit(tree.body, module, None)
    return options, required


def _is_static(fn) -> bool:
    return any(_name(d) == "staticmethod" for d in fn.decorator_list)


class _Calls(ast.NodeVisitor):
    """Collect, for every call, what it sets and what it only forwards."""

    def __init__(self) -> None:
        self.set: set[tuple[str, str]] = set()
        self.positional: dict[str, int] = defaultdict(int)
        # (callee, arg) -> the (callee, arg) keys it is forwarded from
        self.forwards: dict[tuple[str, str], set[tuple[str, str]]] = defaultdict(set)
        # a local name bound to functions: ``body = f if c else g``
        self.aliases: dict[str, set[str]] = defaultdict(set)
        # callee -> the functions that pass it their ``**kwargs`` whole
        self.splats: dict[str, set[str]] = defaultdict(set)
        self._scopes: list[tuple[str, set[str]]] = []  # (callee key, params)
        self._classes: list[str] = []

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        names = ([value.body, value.orelse] if isinstance(value, ast.IfExp)
                 else [value])
        if (len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and all(isinstance(n, (ast.Name, ast.Attribute)) for n in names)):
            self.aliases[node.targets[0].id].update(_name(n) for n in names)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node.name)
        saved, self._scopes = self._scopes, []
        self.generic_visit(node)
        self._scopes = saved
        self._classes.pop()

    def _visit_function(self, node) -> None:
        a = node.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        if a.kwarg is not None:
            params.add("**" + a.kwarg.arg)
        in_class = self._classes and not self._scopes
        key = (self._classes[-1]
               if in_class and node.name in ("__init__", "__new__")
               else node.name)
        self._scopes.append((key, params))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def _forward_source(self, arg: str, value: ast.AST) -> tuple[str, str] | None:
        if isinstance(value, ast.Name) and value.id == arg:
            for key, params in reversed(self._scopes):
                if arg in params:
                    return (key, arg)
        if (isinstance(value, ast.Attribute) and value.attr == arg
                and isinstance(value.value, ast.Name)
                and value.value.id in ("self", "cls") and self._classes):
            return (self._classes[-1], arg)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        callee = _name(node.func)
        args, keywords = node.args, node.keywords
        if callee == "partial" and args:
            callee, args = _name(args[0]), args[1:]
        if callee == "_replace":
            callee = "replace"
        if callee is not None:
            self._record(callee, args, keywords)
            for alias in self.aliases.get(callee, ()):
                self._record(alias, args, keywords)
        self.generic_visit(node)

    def _record(self, callee: str, args, keywords) -> None:
        if callee == "cls" and self._classes:
            callee = self._classes[-1]
        if any(isinstance(a, ast.Starred) for a in args):
            self.positional[callee] = sys.maxsize
        else:
            self.positional[callee] = max(self.positional[callee], len(args))
        for kw in keywords:
            if kw.arg is None:
                if isinstance(kw.value, ast.Name) and self._scopes:
                    key, params = self._scopes[-1]
                    if "**" + kw.value.id in params:
                        self.splats[callee].add(key)
                continue
            source = self._forward_source(kw.arg, kw.value)
            if source is None:
                self.set.add((callee, kw.arg))
            else:
                self.forwards[(callee, kw.arg)].add(source)


def sweep() -> list[_Option]:
    """Every option in ``src/`` that no call sets, in file order."""
    options: list[_Option] = []
    required: set[tuple[str, str]] = set()
    calls = _Calls()
    for root in CALLER_DIRS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            if root == SRC:
                found, req = _definitions(path, tree)
                options += found
                required |= req
            calls.visit(tree)

    # A forward from anything but an option (``self.x`` computed in
    # ``__init__``, a parameter of a function outside ``src/``) sets.
    options_by_key = {(o.callee, o.arg) for o in options}
    settled = calls.set | required
    changed = True
    while changed:
        changed = False
        for target, sources in calls.forwards.items():
            if target not in settled and (
                sources & settled or sources - options_by_key
            ):
                settled.add(target)
                changed = True
        for callee, arg in options_by_key - settled:
            if any((g, arg) in settled for g in calls.splats.get(callee, ())):
                settled.add((callee, arg))
                changed = True

    def is_set(opt: _Option) -> bool:
        if (opt.callee, opt.arg) in settled:
            return True
        if opt.field and ("replace", opt.arg) in settled:
            return True
        return (opt.position is not None
                and calls.positional.get(opt.callee, 0) > opt.position)

    return [opt for opt in options if not is_set(opt)]


def test_every_option_has_a_caller():
    unset = [o for o in sweep() if _allowed(o.qualname) is None]
    lines = [f"{o.path.relative_to(ROOT)}:{o.line} {o.qualname}" for o in unset]
    assert not lines, ("options that no caller in src/, benchmarks/ or "
                       "examples/ sets (delete them, or list them in "
                       "ALLOWED with a reason):\n" + "\n".join(lines))


def test_every_allowed_option_is_still_unset():
    unset = {o.qualname for o in sweep()}
    unset |= {q.rsplit(".", 1)[0] for q in unset}
    stale = sorted(set(ALLOWED) - unset)
    assert not stale, f"ALLOWED entries that are set or gone: {stale}"


def test_every_allowed_option_has_a_reason_from_the_list():
    closed = (SEAM, SMALL, DEPLOYMENT, MODEL)
    for name, reason in ALLOWED.items():
        assert reason in closed or (
            reason.startswith(CALLER) and len(reason) > len(CALLER)
        ), name


if __name__ == "__main__":
    for opt in sweep():
        reason = _allowed(opt.qualname) or "UNSET"
        print(f"{opt.path.relative_to(ROOT)}:{opt.line} {opt.qualname}  [{reason}]")
