"""API-surface guard: every name a module exports has a caller, and so
does every public method or property of an exported class.

Each module under ``src/kuramoto_dephasing`` lists its public names in
``__all__``.  A name counts as used when the package or the benchmark
(``perfbench/``) reads it somewhere other than its own definition, the
``__all__`` lists and the re-exports of ``__init__.py``: as a name, as an
attribute (``scheme.outer_solve``), or as the attribute string of a
``(module, "name")`` pair or a ``getattr``-style call, which is how the
benchmark's span recorder looks its boundaries up.  An import alone is
not a use, nor is a string elsewhere (a ledger key may share a name).
A public method of an exported class counts as read only where it is
called, ``obj.name(...)``, and a property only where it is read as an
attribute; no two classes of the package define a public method or
property of the same name, so a reader names one.  Tests do not count as
callers.

The benchmark's span recorder (``perfbench/spans.py``) wraps the
boundaries it lists in ``BOUNDARIES`` and reads work units from the
arguments of each call, so those boundaries and argument names are part
of the surface too: a cut that drops one would break only a traced run.
"""

import ast
import importlib.util
import inspect
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kuramoto_dephasing"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
LOOKUPS = {"getattr", "setattr", "hasattr", "delattr"}


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _definitions(tree):
    # top-level name -> (first line, last line) of its definition
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.Assign) and not _is_all(node):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    spans[t.id] = (node.lineno, node.end_lineno)
    return spans


def _attribute_string(owner, attr):
    # "name" of a (module, "name") pair or of getattr(module, "name")
    if isinstance(owner, ast.Name) and owner.id in MODULES:
        if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
            return attr.value
    return None


def _uses(tree):
    # (name, line) for every read of a name or attribute, skipping the
    # __all__ lists
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Tuple):
            for owner, attr in zip(node.elts, node.elts[1:]):
                if (name := _attribute_string(owner, attr)) is not None:
                    yield name, node.lineno
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            if isinstance(node.func, ast.Name) and node.func.id in LOOKUPS:
                if (name := _attribute_string(*node.args[:2])) is not None:
                    yield name, node.lineno
        stack.extend(ast.iter_child_nodes(node))


def _trees_and_uses():
    # every parsed source, and name -> [(path, line)] of its reads outside
    # the re-exports of __init__.py
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    uses = {}
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    return trees, uses


def _read_elsewhere(uses, name, path, span):
    lo, hi = span
    return any(p != path or not lo <= line <= hi for p, line in uses.get(name, ()))


def test_every_exported_name_has_a_caller():
    trees, uses = _trees_and_uses()
    orphans = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        exported = [ast.literal_eval(n.value) for n in tree.body if _is_all(n)]
        spans = _definitions(tree)
        for name in (n for names in exported for n in names):
            if not _read_elsewhere(uses, name, path, spans.get(name, (0, -1))):
                orphans.append(f"{path.stem}.{name}")
    assert not orphans, f"exported but never used by the package or perfbench: {orphans}"


def _member_reads(trees):
    # (calls, reads): name -> [(path, line)] of every call obj.name(...)
    # and of every attribute read obj.name, outside the re-exports of
    # __init__.py
    calls, reads = {}, {}
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls.setdefault(node.func.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    return calls, reads


def _is_property(fn):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)


def _public_members(cls):
    # the public methods and properties a class body defines
    return [fn for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]


def test_every_public_method_of_an_exported_class_has_a_reader():
    # a method counts as read only where it is called, obj.name(...), and a
    # property where it is read, obj.name, in the package or perfbench
    # outside its own definition: a bare name or numpy's .shape does not
    # vouch for Grid.shape(); a method only tests call is surface to no one
    trees, _ = _trees_and_uses()
    calls, reads = _member_reads(trees)
    orphans = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        exported = {n for node in tree.body if _is_all(node) for n in ast.literal_eval(node.value)}
        classes = (c for c in tree.body if isinstance(c, ast.ClassDef) and c.name in exported)
        for cls in classes:
            for fn in _public_members(cls):
                readers = reads if _is_property(fn) else calls
                if not _read_elsewhere(readers, fn.name, path, (fn.lineno, fn.end_lineno)):
                    orphans.append(f"{path.stem}.{cls.name}.{fn.name}")
    assert not orphans, f"public methods no package or perfbench code reads: {orphans}"


def test_no_public_method_name_is_defined_on_two_classes():
    # a reader of one class's method would vouch for the other's by name,
    # as FrequencyProfile.density's readers once did for an unread
    # AsymptoticState.density
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for fn in _public_members(cls):
                    owners.setdefault(fn.name, []).append(f"{path.stem}.{cls.name}")
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert not shared, f"public method names defined on more than one class: {shared}"


# how characteristics cuts its loops: the time tiles, the parts, their
# hand-off and the two walkers, the per-tile phase kernels, the e^{i omega t}
# table and the row sup; every other module calls the loops that use them
LOOP_POLICY = {"time_tiles", "row_shares", "split", "in_parts", "in_row_parts",
               "_integral_parts", "_angle_parts", "tile_kernels", "oscillation_table",
               "_row_sup"}


def _names_read_from_characteristics(tree):
    # names imported from characteristics, and attributes read off it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("characteristics"):
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "characteristics"):
            yield node.attr


def test_only_characteristics_reads_its_loop_policy():
    readers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "characteristics":
            continue
        read = LOOP_POLICY & set(_names_read_from_characteristics(ast.parse(path.read_text())))
        if read:
            readers[path.stem] = sorted(read)
    assert not readers, f"modules that cut characteristics' loops themselves: {readers}"


# where the per-tile kernel rule and the tails' bookkeeping may be read:
# the walkers pick the kernels, and the angle walker alone keeps the tails,
# so a sweep reports what its walk did instead of working it out again
TILE_KERNEL_CALLERS = {"_integral_parts", "phase_quadrature"}
TAIL_READERS = {"_Tail", "_integral_parts"}


def test_the_tile_kernels_and_the_tails_have_one_reader_per_walker():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "tile_kernels" and top.name not in TILE_KERNEL_CALLERS:
                        found.append(f"{path.stem}.{top.name} calls tile_kernels")
                elif (isinstance(node, ast.Attribute) and node.attr in ("tiles", "kernels")
                      and top.name not in TAIL_READERS):
                    found.append(f"{path.stem}.{top.name} reads .{node.attr}")
    assert not found, found


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name while it is created
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _read_arguments(work):
    # every key k of an args["k"] read in the work function's source
    tree = ast.parse(inspect.getsource(work))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name) and node.value.id == "args"
        and isinstance(node.slice, ast.Constant)
    }


def test_every_span_boundary_resolves_and_takes_what_its_work_reads(monkeypatch):
    spans = _spans_module(monkeypatch)
    read = set()
    for module, attr, name, work in spans.BOUNDARIES:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{module.__name__}.{attr} ({name}) is not a callable"
        if work is None:
            continue
        names = _read_arguments(work[0])
        params = set(inspect.signature(fn).parameters)
        assert names <= params, f"{name} has no parameter {sorted(names - params)}"
        read |= names
    # the parse above finds every argument the work functions read
    assert read == {"field", "deviation", "grid", "phase_step_cap", "ens", "n_steps"}


def test_span_recorder_sees_the_streamed_coupling_integrals(monkeypatch):
    # reconstruct consumes gamma_field's tiles inside one call, so a traced
    # run records it once, with the work of the whole field
    from kuramoto_dephasing import (
        AsymptoticState, FrequencyProfile, WeightSpec, build_grid, outer_solve, scheme,
    )

    spans = _spans_module(monkeypatch)
    profile = FrequencyProfile("lorentzian", 1.0)
    state = AsymptoticState(profile, {1: 0.05}, "exponential", 0.9)
    grid = build_grid(profile, t_max=4.0, dt=0.1, n_theta=8, n_omega=17)
    result = outer_solve(state, grid, 0.05, WeightSpec("exponential", 0.9), tail_budget=1e-2)
    recorder = spans.SpanRecorder()
    with recorder.installed():
        scheme.reconstruct(result, times=(0.0, 1.0))
    (outer,) = [s for s in recorder.spans if s.name == "scheme.reconstruct"]
    gamma = [s for s in recorder.spans if s.name == "characteristics.gamma_field"]
    assert len(gamma) == 1
    assert gamma[0].work == result.field.deviation.size
    assert recorder.spans[gamma[0].parent] is outer


def _check_nesting(spans):
    # every child inside its parent, and no two spans of one parent overlap
    by_parent = {}
    for idx, span in enumerate(spans):
        assert span.end_ns >= span.start_ns > 0, span
        if span.parent is not None:
            parent = spans[span.parent]
            assert span.parent < idx
            assert parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns, span
        by_parent.setdefault(span.parent, []).append(span)
    for siblings in by_parent.values():
        ordered = sorted(siblings, key=lambda s: s.start_ns)
        assert all(a.end_ns <= b.start_ns for a, b in zip(ordered, ordered[1:]))


def test_split_loops_enter_no_span_boundary_from_a_worker(monkeypatch):
    # the span recorder's self times assume one thread of spans: the split
    # loops' parts may run on pool threads, but only private helpers there
    from kuramoto_dephasing import (
        AsymptoticState, FrequencyProfile, WeightSpec, build_grid, characteristics, scheme,
    )

    spans = _spans_module(monkeypatch)
    # three parts whatever the machine, so two of them run on the pool
    monkeypatch.setattr(characteristics, "_PARTS", 3)
    part_threads = set()
    run_part = characteristics._run_part

    def recorded_part(work, p):
        part_threads.add(threading.get_ident())
        return run_part(work, p)

    monkeypatch.setattr(characteristics, "_run_part", recorded_part)
    profile = FrequencyProfile("lorentzian", 1.0)
    state = AsymptoticState(profile, {1: 0.05}, "exponential", 0.9)
    grid = build_grid(profile, t_max=4.0, dt=0.1, n_theta=10, n_omega=17)
    caller = threading.get_ident()
    calls = []
    recorder = spans.SpanRecorder()
    with recorder.installed(), pytest.MonkeyPatch.context() as mp:
        for module, attr, name, _ in spans.BOUNDARIES:
            def checked(*args, _fn=getattr(module, attr), _name=name, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)

            mp.setattr(module, attr, checked)
        result = scheme.outer_solve(state, grid, 0.05, WeightSpec("exponential", 0.9),
                                    tail_budget=1e-2)
        scheme.reconstruct(result, times=(0.0, 1.0))
        characteristics.backward_ode_oracle(grid, result.path.values, 0.05)
    assert len(part_threads) > 1 and caller in part_threads
    names = {name for name, _ in calls}
    assert {
        "characteristics.deviation_sweep", "characteristics.gamma_field",
        "scheme.order_parameter_of", "characteristics.solve_fixed_point",
        "characteristics.backward_ode_oracle",
    } <= names
    assert all(ident == caller for _, ident in calls)
    # the recorder saw every call, properly nested
    assert sorted(s.name for s in recorder.spans) == sorted(name for name, _ in calls)
    _check_nesting(recorder.spans)


def test_particle_records_enter_no_span_boundary_from_a_worker(monkeypatch):
    # simulate hands its order-parameter records to the pool, but only the
    # private _mean_field runs there; its span and its callees' stay put
    from kuramoto_dephasing import (
        AsymptoticState, FrequencyProfile, WeightSpec, build_grid, characteristics, particles,
        scheme,
    )

    spans = _spans_module(monkeypatch)
    # three parts whatever the machine, so records go to the pool
    monkeypatch.setattr(characteristics, "_PARTS", 3)
    record_threads = set()
    mean_field = particles._mean_field

    def recorded_mean_field(phases):
        record_threads.add(threading.get_ident())
        return mean_field(phases)

    monkeypatch.setattr(particles, "_mean_field", recorded_mean_field)
    profile = FrequencyProfile("lorentzian", 1.0)
    state = AsymptoticState(profile, {1: 0.05}, "exponential", 0.9)
    grid = build_grid(profile, t_max=4.0, dt=0.1, n_theta=10, n_omega=17)
    result = scheme.outer_solve(state, grid, 0.05, WeightSpec("exponential", 0.9),
                                tail_budget=1e-2)
    caller = threading.get_ident()
    calls = []
    recorder = spans.SpanRecorder()
    with recorder.installed(), pytest.MonkeyPatch.context() as mp:
        for module, attr, name, _ in spans.BOUNDARIES:
            def checked(*args, _fn=getattr(module, attr), _name=name, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)

            mp.setattr(module, attr, checked)
        ens, _ = particles.init_from_solution(result.field, state, 2000, seed=3)
        particles.simulate(ens, 0.05, 20, record_every=3)
    assert record_threads - {caller}
    names = {name for name, _ in calls}
    assert {
        "particles.init_from_solution", "particles.simulate", "spectral_state.sample_labels",
    } <= names
    assert all(ident == caller for _, ident in calls)
    # the recorder saw every call, properly nested
    assert sorted(s.name for s in recorder.spans) == sorted(name for name, _ in calls)
    _check_nesting(recorder.spans)


# each input rule has one definition: spectral_state's two helpers read a
# scalar (``real``) or a count (``integer``), and every other module calls
# them
RULE_HELPERS = {("spectral_state", "real"), ("spectral_state", "integer")}


def _rule_checks(tree):
    # (enclosing top-level name, "operator.index" | "bool") for each call of
    # operator.index (or import from operator) and each isinstance(..., bool)
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                yield owner, "operator.index"
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "index"
                    and isinstance(func.value, ast.Name) and func.value.id == "operator"):
                yield owner, "operator.index"
            if isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2:
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    yield owner, "bool"


def test_each_input_rule_is_written_once():
    cli_tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(cli_tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(cli_tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not imported & {"math", "operator"}, "cli.py checks numbers itself"
    defined = {node.name for node in cli_tree.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_number", "_finite"}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, check in _rule_checks(ast.parse(path.read_text())):
            if (path.stem, owner) not in RULE_HELPERS:
                stray.append(f"{path.stem}.{owner}: {check}")
    assert not stray, f"input rules written outside spectral_state.real/integer: {stray}"


def _builtin_reductions(node):
    # the lines of every call of the builtin max or min under ``node``
    return [call.lineno for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in {"max", "min"}]


def test_the_run_checks_reduce_with_numpy():
    # Python's max and min skip a NaN unless it comes first, so a check
    # that reduces with them passes a ratio that is NaN
    acceptance = ast.parse((PACKAGE / "acceptance.py").read_text())
    scheme = ast.parse((PACKAGE / "scheme.py").read_text())
    (verify,) = [node for node in scheme.body
                 if isinstance(node, ast.FunctionDef) and node.name == "verify_lemmas"]
    found = {"acceptance": _builtin_reductions(acceptance),
             "scheme.verify_lemmas": _builtin_reductions(verify)}
    assert found == {"acceptance": [], "scheme.verify_lemmas": []}, found


def test_the_command_line_holds_no_rule_of_its_own():
    # a bound, a range or a finiteness test in cli.py is a rule the library
    # also writes, or should: cli.py parses and maps errors to exit codes
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = [f"comparison at line {node.lineno}" for node in ast.walk(cli)
             if isinstance(node, ast.Compare) and any(isinstance(op, ordering) for op in node.ops)]
    for node in ast.walk(cli):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"min", "max", "isfinite"}:
            found.append(f"{func.id}() at line {node.lineno}")
        elif isinstance(func, ast.Attribute) and func.attr == "isfinite":
            found.append(f"isfinite() at line {node.lineno}")
    found += [f"import from characteristics at line {node.lineno}" for node in ast.walk(cli)
              if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("characteristics")]
    assert not found, found
