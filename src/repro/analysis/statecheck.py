"""Pass 4: shared-state & determinism analysis (the shardability gate).

The fleet-scale campaign engine (ROADMAP) shards hundreds of simulated
machines across worker processes and merges their metric registries
deterministically.  That only works if machine construction is decoupled
from module-level singletons: no cross-machine shared mutable state, no
iteration-order nondeterminism.  This pass *proves* the property
statically, the way the spec checker proves register semantics.

It is a whole-program, cross-module AST analysis over ``src/repro``:

1. **Inventory** — every module-level mutable binding (dict/list/set
   displays and constructors, class instantiations) plus any binding
   that is mutated from anywhere in the package.
2. **Classification** — by tracking which functions read vs. mutate each
   object across module boundaries, and whether each mutating function
   is only ever called from its own module's top level (import time):

   * ``constant`` — mutated only while its module imports (e.g. the
     register registry populated by an import-time-only ``_define``
     helper); safe to share read-only between machines.
   * ``cache`` — runtime-mutated, but every mutator is a guarded
     get-or-compute memoizer or a public reset hook; deterministic
     per-key content, so sharing is benign (``sc-cache-no-reset`` fires
     if no reset hook exists).
   * ``singleton`` — machine-coupled: mutated at runtime with no
     memoization discipline.  Two machines in one process would observe
     each other through it; fails the gate (``sc-singleton``).

3. **Hazards** — iteration over shared ``set`` state
   (``sc-set-iteration``, hash-order dependent) and mutation of a
   module-level object from *another* module's top level
   (``sc-import-order-hook``, ordering depends on import order).

Findings diff against a committed baseline (``STATECHECK_BASELINE.json``
at the repo root) so new violations fail CI while existing ones are
burned down.  ``python -m repro lint --statecheck`` renders the
shardability report (human and, with ``--statecheck-json``, machine
readable).

The dynamic counterpart, :func:`run_shared_state_check`
(``san-shared-state``), snapshots the static inventory's live values,
constructs and runs two machines in one process, and fails on any
cross-machine mutation or on diverging metric exports — a race detector
for the simulated world.
"""

import ast
import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import Finding, apply_pragmas, pragma_allowances

SCHEMA = "repro-statecheck/1"
BASELINE_SCHEMA = "repro-statecheck-baseline/1"
BASELINE_NAME = "STATECHECK_BASELINE.json"

#: Container-method calls that mutate the receiver.
MUTATOR_METHODS = {
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "remove", "reverse",
    "setdefault", "sort", "update",
}
#: Mutator methods that implement a guarded get-or-compute on their own.
_MEMO_METHODS = {"setdefault"}
#: Mutator methods that empty the object (public reset hooks).
_RESET_METHODS = {"clear"}
#: Constructor calls producing mutable containers.
MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter",
}
#: Constructor calls producing immutable values (never inventoried).
IMMUTABLE_CONSTRUCTORS = {"frozenset", "tuple", "MappingProxyType"}


def _attr_chain(node):
    """Dotted parts of an attribute/name chain, outermost first."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _binding_kind(value):
    """Classify a module-level RHS expression: what does the name hold?"""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        chain = _attr_chain(value.func)
        name = chain[-1] if chain else ""
        if name in ("dict", "defaultdict", "OrderedDict", "Counter"):
            return "dict"
        if name in ("list", "deque"):
            return "list"
        if name == "set":
            return "set"
        if name == "bytearray":
            return "list"
        if name in IMMUTABLE_CONSTRUCTORS:
            return "immutable"
        if name[:1].isupper():
            return "instance"
        return "derived"
    return "immutable"


@dataclass
class _Event:
    """One access to a module-level binding, seen from some module."""

    target: tuple  # (module, name)
    action: str  # "read" | "mutate" | "iterate" | "guard" | "reset"
    module: str  # module the access appears in
    function: str  # enclosing function qualname, or "" for top level
    line: int
    detail: str = ""


@dataclass
class _ModuleScan:
    module: str
    path: str
    bindings: dict = field(default_factory=dict)  # name -> (kind, line)
    functions: set = field(default_factory=set)  # module-level func names
    events: list = field(default_factory=list)
    calls: list = field(default_factory=list)  # ((mod, fn), in_function)
    escapes: set = field(default_factory=set)  # (mod, fn) referenced


class _Scanner(ast.NodeVisitor):
    """Single-module scan; resolution of imports makes it cross-module."""

    def __init__(self, scan, package):
        self.scan = scan
        self.package = package
        self._import_modules = {}  # alias -> dotted module
        self._import_names = {}  # alias -> (module, name)
        self._stack = []  # enclosing function/class names
        self._locals = []  # per-function set of local names
        self._globals = []  # per-function names declared global

    # -- context helpers -------------------------------------------------

    @property
    def _at_top(self):
        return not self._stack

    @property
    def _function(self):
        return ".".join(self._stack)

    def _collect_locals(self, node):
        args = node.args
        names = {a.arg for a in args.posonlyargs + args.args
                 + args.kwonlyargs}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and sub is not node:
                names.add(sub.name)
        return names

    def _resolve(self, node):
        """(module, name) the expression refers to, or None."""
        chain = _attr_chain(node)
        if not chain:
            return None
        head = chain[0]
        if len(chain) == 1:
            if self._locals and head in self._locals[-1] \
                    and not (self._globals and head in self._globals[-1]):
                return None
            if head in self._import_names:
                return self._import_names[head]
            return (self.scan.module, head)
        if len(chain) == 2 and head in self._import_modules:
            return (self._import_modules[head], chain[1])
        return None

    def _event(self, node, target, action, detail=""):
        if target is None:
            return
        self.scan.events.append(_Event(
            target=target, action=action, module=self.scan.module,
            function=self._function, line=node.lineno, detail=detail))

    # -- imports ---------------------------------------------------------

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.startswith(self.package + ".") \
                    or alias.name == self.package:
                self._import_modules[alias.asname
                                     or alias.name.split(".")[0]] = \
                    alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module and (node.module.startswith(self.package + ".")
                            or node.module == self.package):
            for alias in node.names:
                local = alias.asname or alias.name
                # ``from pkg import module`` vs ``from module import name``
                # is undecidable syntactically; record both views — the
                # name view only matters if the target module actually
                # binds it, the module view if such a module exists.
                self._import_names[local] = (node.module, alias.name)
                self._import_modules[local] = \
                    "%s.%s" % (node.module, alias.name)
        self.generic_visit(node)

    # -- definitions -----------------------------------------------------

    def _visit_scoped(self, node, is_function):
        if self._at_top and is_function:
            self.scan.functions.add(node.name)
        self._stack.append(node.name)
        if is_function:
            self._locals.append(self._collect_locals(node))
            self._globals.append({
                name for sub in ast.walk(node)
                if isinstance(sub, ast.Global) for name in sub.names})
        self.generic_visit(node)
        if is_function:
            self._locals.pop()
            self._globals.pop()
        self._stack.pop()

    def visit_FunctionDef(self, node):
        self._visit_scoped(node, is_function=True)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self._visit_scoped(node, is_function=False)

    # -- stores ----------------------------------------------------------

    def _check_store(self, target, node, aug=False):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element, node)
            return
        if isinstance(target, ast.Subscript):
            self._event(node, self._resolve(target.value), "mutate",
                        detail="subscript-store")
            return
        if isinstance(target, ast.Attribute):
            self._event(node, self._resolve(target.value), "mutate",
                        detail="attribute-store")
            return
        if isinstance(target, ast.Name):
            if self._at_top:
                kind = _binding_kind(node.value) \
                    if not aug and hasattr(node, "value") else "derived"
                self.scan.bindings.setdefault(target.id,
                                              (kind, node.lineno))
            elif self._globals and target.id in self._globals[-1]:
                action = "reset" if not aug else "mutate"
                self._event(node, (self.scan.module, target.id), action,
                            detail="global-rebind")

    def visit_Assign(self, node):
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.target, ast.Name) and self._at_top:
            self._event(node, (self.scan.module, node.target.id),
                        "mutate", detail="augmented-assign")
        else:
            self._check_store(node.target, node, aug=True)
        self.generic_visit(node)

    def visit_Delete(self, node):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._event(node, self._resolve(target.value), "mutate",
                            detail="del-item")
        self.generic_visit(node)

    # -- calls, reads, loops ---------------------------------------------

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in MUTATOR_METHODS:
            target = self._resolve(func.value)
            if func.attr in _RESET_METHODS and not node.args:
                self._event(node, target, "reset", detail=func.attr)
            elif func.attr in _MEMO_METHODS:
                self._event(node, target, "guard", detail=func.attr)
                self._event(node, target, "mutate", detail=func.attr)
            else:
                self._event(node, target, "mutate", detail=func.attr)
        resolved = self._resolve(func)
        if resolved is not None:
            self.scan.calls.append((resolved, self._function))
        # Visit arguments (and the receiver) but not the callee name
        # itself, so plain calls don't count as escaping references.
        if isinstance(func, ast.Attribute):
            self.visit(func.value)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            target = self._resolve(node)
            if target is not None:
                self._event(node, target, "read")
                self.scan.escapes.add(target)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            target = self._resolve(node)
            if target is not None:
                self._event(node, target, "read")
                self.scan.escapes.add(target)
                return  # the Name underneath is part of this chain
        self.generic_visit(node)

    def visit_Compare(self, node):
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                self._event(node, self._resolve(comparator), "guard",
                            detail="membership-test")
        self.generic_visit(node)

    def _check_iteration(self, node, iter_node):
        self._event(node, self._resolve(iter_node), "iterate")

    def visit_For(self, node):
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node):
        for gen in node.generators:
            self._check_iteration(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def scan_module(source, module, path, package="repro"):
    """Scan one module's source; returns a :class:`_ModuleScan`."""
    scan = _ModuleScan(module=module, path=str(path))
    tree = ast.parse(source, filename=str(path))
    _Scanner(scan, package).visit(tree)
    return scan


# ---------------------------------------------------------------------------
# Package-level synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateObject:
    """One inventoried module-level binding and its classification."""

    module: str
    name: str
    kind: str  # dict | list | set | instance | derived | scalar
    line: int
    path: str
    classification: str  # constant | cache | singleton
    readers: tuple  # "module:function" sites that read it
    mutators: tuple  # "module:function" sites that mutate it
    has_reset: bool = False

    @property
    def key(self):
        return "%s.%s" % (self.module, self.name)


@dataclass(frozen=True)
class StateFinding:
    """One shardability violation, with a line-independent baseline key."""

    rule: str
    key: str  # "<rule>:<module>.<name>" — stable across edits
    message: str
    path: str
    line: int
    baselined: bool = False

    def to_finding(self):
        return Finding(self.rule, self.message, path=self.path,
                       line=self.line)


@dataclass
class ShardabilityReport:
    """The statecheck verdict: inventory + violations vs. baseline."""

    objects: list = field(default_factory=list)
    findings: list = field(default_factory=list)  # StateFinding

    @property
    def new_findings(self):
        return [f for f in self.findings if not f.baselined]

    @property
    def baselined_findings(self):
        return [f for f in self.findings if f.baselined]

    def by_classification(self, classification):
        return [o for o in self.objects
                if o.classification == classification]

    def summary(self):
        return {
            "objects": len(self.objects),
            "constant": len(self.by_classification("constant")),
            "cache": len(self.by_classification("cache")),
            "singleton": len(self.by_classification("singleton")),
            "violations": len(self.findings),
            "new_violations": len(self.new_findings),
            "baselined": len(self.baselined_findings),
        }

    def to_json(self, indent=2):
        document = {
            "schema": SCHEMA,
            "summary": self.summary(),
            "objects": [{
                "module": o.module, "name": o.name, "kind": o.kind,
                "line": o.line, "path": o.path,
                "classification": o.classification,
                "readers": list(o.readers), "mutators": list(o.mutators),
                "has_reset": o.has_reset,
            } for o in self.objects],
            "violations": [{
                "rule": f.rule, "key": f.key, "message": f.message,
                "path": f.path, "line": f.line, "baselined": f.baselined,
            } for f in self.findings],
        }
        return json.dumps(document, sort_keys=True, indent=indent) + "\n"

    def render(self):
        """Human shardability report."""
        lines = ["shardability report (%s)" % SCHEMA]
        summary = self.summary()
        lines.append("  %(objects)d shared object(s): %(constant)d "
                     "constant, %(cache)d cache, %(singleton)d "
                     "machine-coupled singleton(s)" % summary)
        for classification in ("singleton", "cache", "constant"):
            group = self.by_classification(classification)
            if not group:
                continue
            lines.append("  [%s]" % classification)
            for obj in group:
                extras = []
                if obj.mutators:
                    extras.append("mutated by %s"
                                  % ", ".join(obj.mutators))
                if obj.has_reset:
                    extras.append("public reset")
                lines.append("    %s (%s, %s:%d)%s"
                             % (obj.key, obj.kind, obj.path, obj.line,
                                " — " + "; ".join(extras)
                                if extras else ""))
        if self.findings:
            lines.append("  violations (%d new, %d baselined):"
                         % (len(self.new_findings),
                            len(self.baselined_findings)))
            for finding in self.findings:
                marker = "baselined" if finding.baselined else "NEW"
                lines.append("    [%s] %s" % (marker,
                                              finding.to_finding().format()))
        else:
            lines.append("  no violations — the tree is fleet-shardable")
        return "\n".join(lines)


def _site(event):
    return "%s:%s" % (event.module, event.function or "<module>")


class _PackageAnalysis:
    def __init__(self, scans):
        self.scans = scans
        self.modules = {scan.module: scan for scan in scans}
        self._calls = [call for scan in scans for call in scan.calls]
        self._escapes = set()
        for scan in scans:
            self._escapes |= scan.escapes

    def _call_sites(self, module, function):
        """Call sites of a module-level function, as (caller_module,
        caller_function) pairs."""
        sites = []
        for scan in self.scans:
            for target, caller in scan.calls:
                if target == (module, function):
                    sites.append((scan.module, caller))
        return sites

    def _runs_at_import_only(self, module, function):
        if function == "":
            return True
        scan = self.modules.get(module)
        if scan is None or function not in scan.functions:
            return False  # a method or nested function: assume runtime
        if (module, function) in self._escapes:
            return False
        sites = self._call_sites(module, function)
        if not sites:
            return False
        return all(caller_module == module and caller == ""
                   for caller_module, caller in sites)

    def analyze(self):
        objects = {}  # (module, name) -> accumulated events
        for scan in self.scans:
            for event in scan.events:
                module, name = event.target
                target_scan = self.modules.get(module)
                if target_scan is None \
                        or name not in target_scan.bindings:
                    continue
                objects.setdefault((module, name), []).append(event)
        inventory = []
        findings = []
        for scan in self.scans:
            for name, (kind, line) in sorted(scan.bindings.items(),
                                             key=lambda kv: kv[1][1]):
                # Immutable bindings only matter when rebound at
                # runtime (``global`` rebinding makes them shared
                # state too); _classify drops the untouched ones.
                if kind == "immutable":
                    kind = "scalar"
                events = objects.get((scan.module, name), [])
                obj, obj_findings = self._classify(
                    scan, name, kind, line, events)
                if obj is None:
                    continue
                inventory.append(obj)
                findings.extend(obj_findings)
        return inventory, findings

    def _classify(self, scan, name, kind, line, events):
        readers = sorted({_site(e) for e in events if e.action == "read"
                          and (e.module, e.function) != (scan.module, "")})
        mutations = [e for e in events if e.action == "mutate"]
        resets = [e for e in events if e.action == "reset"]
        guards = {(e.module, e.function) for e in events
                  if e.action == "guard"}
        iterations = [e for e in events if e.action == "iterate"]

        runtime_mutators = []
        foreign_import_mutators = []
        for event in mutations + resets:
            if event.function == "" and event.module == scan.module:
                continue  # own-module import time: constant construction
            if event.function == "" and event.module != scan.module:
                foreign_import_mutators.append(event)
            elif not self._runs_at_import_only(event.module,
                                               event.function):
                runtime_mutators.append(event)

        if kind not in ("dict", "list", "set", "instance", "derived") \
                and not runtime_mutators and not foreign_import_mutators:
            return None, []  # scalar/immutable binding, never mutated

        mutators = sorted({_site(e) for e in runtime_mutators
                           + foreign_import_mutators})
        findings = []
        runtime_real = [e for e in runtime_mutators
                        if e.action == "mutate"]
        runtime_resets = [e for e in runtime_mutators + resets
                          if e.action == "reset"]
        if not runtime_mutators and not runtime_resets:
            classification = "constant"
        else:
            memoized = all(
                (e.module, e.function) in guards or e.detail in _MEMO_METHODS
                for e in runtime_real)
            if runtime_real and memoized:
                classification = "cache"
                if not runtime_resets and not resets:
                    findings.append(self._finding(
                        "sc-cache-no-reset", scan, name, line,
                        "memoization cache %s.%s has no public reset "
                        "hook; a long-lived process can never shed it"
                        % (scan.module, name)))
            elif not runtime_real and runtime_resets:
                classification = "cache"  # reset-only: a resettable pool
            else:
                classification = "singleton"
                sites = ", ".join(sorted({_site(e)
                                          for e in runtime_real})) \
                    or "unknown sites"
                findings.append(self._finding(
                    "sc-singleton", scan, name, line,
                    "machine-coupled singleton: %s.%s is mutated at "
                    "runtime (by %s) with no memoization discipline — "
                    "thread it through machine construction instead"
                    % (scan.module, name, sites)))

        if foreign_import_mutators:
            sites = ", ".join(sorted({_site(e)
                                      for e in foreign_import_mutators}))
            findings.append(self._finding(
                "sc-import-order-hook", scan, name, line,
                "%s.%s is mutated from another module's top level (%s); "
                "its contents depend on import order"
                % (scan.module, name, sites)))

        if kind == "set" and iterations:
            where = ", ".join(sorted({_site(e) for e in iterations}))
            findings.append(self._finding(
                "sc-set-iteration", scan, name, line,
                "shared set %s.%s is iterated (%s); iteration order is "
                "hash-dependent and breaks deterministic shard-merge"
                % (scan.module, name, where)))

        obj = StateObject(
            module=scan.module, name=name, kind=kind, line=line,
            path=scan.path, classification=classification,
            readers=tuple(readers), mutators=tuple(mutators),
            has_reset=bool(resets))
        return obj, findings

    @staticmethod
    def _finding(rule, scan, name, line, message):
        return StateFinding(
            rule=rule, key="%s:%s.%s" % (rule, scan.module, name),
            message=message, path=scan.path, line=line)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _package_root():
    import repro
    return Path(repro.__file__).parent


def _repo_root():
    return _package_root().parent.parent


def default_baseline_path():
    return _repo_root() / BASELINE_NAME


def iter_package_sources(root=None, package=None):
    """Yield (module_name, path) for every source file under *root*."""
    root = Path(root) if root is not None else _package_root()
    package = package if package is not None else root.name
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relative = path.relative_to(root)
        parts = (package,) + relative.parts[:-1]
        stem = relative.stem
        module = ".".join(parts if stem == "__init__"
                          else parts + (stem,))
        yield module, path


def analyze_paths(sources, package="repro"):
    """Run the whole-program analysis over ``(module, path)`` pairs."""
    scans = []
    pragmas = {}
    for module, path in sources:
        source = Path(path).read_text(encoding="utf-8")
        scans.append(scan_module(source, module, path, package=package))
        pragmas[str(path)] = pragma_allowances(source)
    inventory, findings = _PackageAnalysis(scans).analyze()
    kept = []
    for state_finding in findings:
        allowed = pragmas.get(state_finding.path, {})
        if apply_pragmas([state_finding.to_finding()],
                         allowed):
            kept.append(state_finding)
    return inventory, kept


def load_baseline(path=None):
    """The committed suppression keys; empty set if no baseline file.

    Raises ValueError naming the file for malformed JSON, an unknown
    ``schema`` or ``suppressions`` that is not a list of keys.
    """
    path = Path(path) if path is not None else default_baseline_path()
    if not path.exists():
        return set()
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError("%s: unreadable baseline: %s" % (path, exc))
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema != BASELINE_SCHEMA:
        raise ValueError("%s: unknown baseline schema %r, want %r"
                         % (path, schema, BASELINE_SCHEMA))
    suppressions = document.get("suppressions", [])
    if not (isinstance(suppressions, list)
            and all(isinstance(key, str) for key in suppressions)):
        raise ValueError("%s: suppressions must be a list of strings"
                         % path)
    return set(suppressions)


def write_baseline(findings, path=None):
    """Write every current violation key as the new baseline."""
    path = Path(path) if path is not None else default_baseline_path()
    document = {
        "schema": BASELINE_SCHEMA,
        "comment": "Known shardability violations being burned down; "
                   "python -m repro lint --statecheck "
                   "--update-statecheck-baseline regenerates this file.",
        "suppressions": sorted({f.key for f in findings}),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    return path


def check_shardability(root=None, package=None, baseline=None):
    """The statecheck gate: analysis + baseline diff.

    Returns a :class:`ShardabilityReport` whose ``new_findings`` are the
    violations CI fails on.
    """
    sources = list(iter_package_sources(root, package))
    package_name = package if package is not None \
        else (Path(root).name if root is not None else "repro")
    inventory, findings = analyze_paths(sources, package=package_name)
    if baseline is None:
        baseline = load_baseline()
    findings = [
        StateFinding(rule=f.rule, key=f.key, message=f.message,
                     path=f.path, line=f.line,
                     baselined=f.key in baseline)
        for f in findings]
    return ShardabilityReport(objects=inventory, findings=findings)


# ---------------------------------------------------------------------------
# Dynamic counterpart: the san-shared-state race detector
# ---------------------------------------------------------------------------

def _state_repr(value, depth=0):
    """Stable, order-sensitive textual snapshot of a live object."""
    if depth > 4:
        return "<deep>"
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            "%r: %s" % (key, _state_repr(item, depth + 1))
            for key, item in value.items())
    if isinstance(value, (list, tuple)):
        brackets = "[%s]" if isinstance(value, list) else "(%s)"
        return brackets % ", ".join(_state_repr(item, depth + 1)
                                    for item in value)
    if isinstance(value, (set, frozenset)):
        return "{set: %s}" % ", ".join(
            sorted(_state_repr(item, depth + 1) for item in value))
    if hasattr(value, "__dict__") and not callable(value):
        return "%s(%s)" % (type(value).__name__,
                           _state_repr(vars(value), depth + 1))
    return repr(value)


def snapshot_shared_state(objects):
    """Live snapshot {module.name: stable-repr} of the inventory."""
    snapshot = {}
    for obj in objects:
        try:
            module = importlib.import_module(obj.module)
        except ImportError:
            continue
        if hasattr(module, obj.name):
            snapshot[obj.key] = _state_repr(getattr(module, obj.name))
    return snapshot


def run_shared_state_check(report=None, mode="neve", hypercalls=2,
                           objects=None):
    """``san-shared-state``: a race detector for the simulated world.

    Snapshots every inventoried module-level object, constructs and runs
    two identical observed machines in one process, and fails if (a) the
    second machine's run mutated any shared state the first could
    observe, (b) any *constant*-classified object moved at all, or (c)
    the two machines' export bundles differ in any key.
    """
    from repro.analysis import sanitizer

    if report is None:
        report = sanitizer.SanitizerReport()
    if objects is None:
        objects = check_shardability().objects

    before = snapshot_shared_state(objects)
    first = sanitizer.exports(*sanitizer._scenario(mode, hypercalls))
    after_first = snapshot_shared_state(objects)
    second = sanitizer.exports(*sanitizer._scenario(mode, hypercalls))
    after_second = snapshot_shared_state(objects)

    sanitizer.differential(
        report, "san-shared-state",
        "two identical machines in one process (cross-machine coupling)",
        first, second)
    classifications = {obj.key: obj.classification for obj in objects}
    for key in sorted(before):
        report.record(
            after_first.get(key) == after_second.get(key),
            "san-shared-state",
            "%s mutated while the second machine was constructed/run — "
            "machines can observe each other through it" % key)
        if classifications.get(key) == "constant":
            report.record(
                before[key] == after_first.get(key),
                "san-shared-state",
                "constant-classified %s mutated after machine "
                "construction" % key)
    return report
