"""Source-level checks on the package.

Invariants are explicit raises, never ``assert``: ``python -O`` strips
assert statements, so a check written as one silently disappears under
optimization.  The log-domain walk step has one definition, the
transfer kernel in ``polymer``, so a second copy cannot drift from it,
and every log Z is one window list of ``_window_log_partitions``;
likewise ``experiments.run_experiment`` is the one campaign runner,
``environment.top_sites`` the one ranking of walk-reachable sites and
``environment.reaches`` the one row rule of the walk lattice.
Chain legs are stored by their end point (``into_step``), and the old
transposed name ``pair_step`` stays gone.  Both 2^k subset enumerations
(the brute-force table and the heavy-site inclusion-exclusion) run on
``elpp.chain_lattice``; the CLI parses its specs with one grammar, and
campaign tables sort on (n, replica) with no per-table key width.
alpha sets the critical-coupling flavor, so no function takes one;
every regime label, the zero-coupling control included, has its record
in ``regimes.RECORDS``; ``polymer.centering_moment`` is the one choice
between the mean and the truncated mean.  Every top-level import is used, so a fold leaves no names behind.
``polymer.kernel_grid`` is cached by ``functools.lru_cache``, not by a
hand-rolled dict; the threshold interval always takes
``continuum.BOOTSTRAP`` resamples; each ``ppp`` op is named once, as a
key of ``cli._PPP_OPS``.  Campaign replicas read their seeds, field and
per-size constants from one task context built by the runner, the
runner's per-replica warning counter ``_counted`` stays gone, and
``chaos_terms`` takes no ``lam``.  Each option has one rule: an energy
filter is one (lo, hi] window, ``ANY`` is ``at_least(0)``, the walk
kernel is exact at every size, the path entropy is one function, a
pathway's text follows its identity, zero coupling is decided once,
``classify`` has no Monte Carlo knobs, and no module swaps the global
``warnings.showwarning``.  Each decision has one owner: ``elpp`` solves
point sets and imports no other package module (a field's problem is
composed by its caller, so ``solve_field`` stays gone), and only
``environment`` branches on the weight law's family.  Each threshold
iteration builds one geometry, so ``elpp.top_geometry`` and its row
helper stay gone, and ``continuum`` selects geometry rows only in the
tie check's helper ``_rows``, which only ``_tied`` calls.  The tie check
is one top-two pass (``elpp.second_value``): ``_tied`` neither solves
nor builds a geometry.  The threshold summary
sorts and calls neither ``np.median`` nor ``np.percentile``.  Each
functional is written once: ``elpp._step_cost`` alone prices a chain leg
(``_rate`` has no other caller and ``prepare_geometry`` only forms the
differences), and every campaign companion is drawn by its regime
record, so ``experiments`` names no continuum functional.  No module
imports ``scipy.special``, ``scipy.stats`` or ``scipy.integrate`` at module
level: the four functions that need one import it where they run.
``elpp.top_by_weight`` is the one weight rank of a point set, taken by
``select_top`` and by the threshold's primary truncation.  Point-set
validity is one ``elpp`` check, which ``entropy``, the solver and
``continuum`` all take; the empty band-window rule is one ``experiments``
helper; and the heavy-site top set is ``select_top``'s.  Each rescaling
rule is read off the label's pathway record (``regimes.Pathway``): the
campaigns name neither ``LINEAR`` nor an ``ENTROPY_*`` leg cost, call
``quantile`` only for the ordered kind's own box, and take no
``entropy`` size key; ``chaos_v_n`` sums in a given box, so
``_summed_v_n`` stays gone.  The package definitions that nothing but
tests reaches are pinned by name, each with its reason to stay.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

import polymerlab
from polymerlab import experiments
from polymerlab.elpp import Cardinality
from polymerlab.polymer import WeightFilter, chaos_terms, chaos_v_n
from polymerlab.regimes import classify

SOURCES = sorted(Path(polymerlab.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    assert len(SOURCES) >= 7
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _functions_calling(tree, attr):
    """Names of the module-level functions whose body calls np.<attr>."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == attr
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "np"
            for call in ast.walk(node)
        ):
            names.append(node.name)
    return names


def test_one_transfer_step_kernel():
    removed = {"_spread", "_transfer_free", "_transfer_window"}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert not defined & removed, path.name
    polymer = Path(polymerlab.__file__).parent / "polymer.py"
    assert _functions_calling(ast.parse(polymer.read_text()), "logaddexp") == ["_transfer"]


def test_one_log_sum_entry():
    # every log Z is one window list of _window_log_partitions; only the
    # stored full-row passes call the kernel for its sites
    tree = ast.parse((Path(polymerlab.__file__).parent / "polymer.py").read_text())
    assert sorted(_calls(tree, "_transfer")) == [
        "_window_log_partitions", "gibbs_site_marginals"]
    assert _calls(tree, "_logsumexp") == ["_window_log_partitions"]
    assert sorted(_calls(tree, "_window_log_partitions")) == [
        "chaos_terms", "gibbs_band_probabilities", "log_partition"]


def test_one_top_by_weight_rule():
    # the weight rank of a point set is written once, in elpp; the
    # time-sorted selection and the threshold's primary truncation both
    # take it, so the truncation sorts no sample
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    defined = [
        name for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "top_by_weight"
    ]
    assert defined == ["elpp"]
    assert _calls(trees["elpp"], "top_by_weight") == ["select_top"]
    assert _calls(trees["continuum"], "top_by_weight") == ["critical_coupling"]
    assert _calls(trees["continuum"], "select_top") == []


def _defined_names(tree):
    """Functions, classes and assigned names anywhere in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_one_campaign_runner():
    removed = {
        "run_fluctuation", "run_regime_convergence", "run_ordered_stats_coupling",
        "run_small_alpha", "_RUNNERS", "_sorted_rows", "_json_value_ok",
    }
    for path in SOURCES:
        assert not _defined_names(ast.parse(path.read_text())) & removed, path.name


def _params_named(tree, name):
    """``function(parameter)`` for every parameter called ``name``."""
    return [
        f"{node.name}({arg.arg})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.args + node.args.posonlyargs + node.args.kwonlyargs
        if arg.arg == name
    ]


def test_one_top_sites_selector():
    # environment.top_sites is the one ranking of walk-reachable sites:
    # no function takes a reachability switch, and the record type, the
    # field dump and the zeroing helper it made redundant stay deleted
    removed = {"OrderedStats", "save_field", "load_field", "zero_top"}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        assert not _defined_names(tree) & removed, path.name
        assert _params_named(tree, "reachable_only") == [], path.name


def _parity_differences(tree):
    """Functions that take ``(a - b) % 2``, the reach's parity term."""
    return [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
        and isinstance(node.right, ast.Constant) and node.right.value == 2
    ]


def test_one_row_rule():
    # environment.reaches is the one statement of the walk lattice's rows:
    # polymer._reach stays gone, reaches is defined once, and no other
    # function takes the reach's parity term (i - cap) % 2
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert [name for name, tree in trees.items() if "_reach" in _defined_names(tree)] == []
    assert [name for name, tree in trees.items()
            if "reaches" in _defined_names(tree)] == ["environment"]
    parity = {name: _parity_differences(tree) for name, tree in trees.items()}
    assert {name: funcs for name, funcs in parity.items() if funcs} == {
        "environment": ["reaches"]
    }


def test_threshold_flavor_follows_alpha():
    # critical_coupling reads the flavor off alpha and _threshold off the
    # geometry's entropy kind; the per-flavor set-up and the campaigns'
    # label -> record shim stay gone
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        assert not _defined_names(tree) & {"_flavor_setup", "_record"}, path.name
        assert _params_named(tree, "flavor") == [], path.name


def test_one_record_per_label_and_one_centering_moment():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert [name for name, tree in trees.items()
            if "LABEL_ZERO" in _defined_names(tree)] == ["regimes"]
    moments = ("mean_weight", "truncated_mean_weight")
    assert _calls(trees["polymer"], *moments) == ["centering_moment"]
    assert _calls(trees["regimes"], *moments) == []


def test_chain_legs_stored_by_end_point():
    # ChainGeometry.into_step[j, i] is the leg i -> j; the transposed
    # pair_step layout stays gone, so no reader mixes up the orientation
    named = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "pair_step")
        or (isinstance(node, ast.Attribute) and node.attr == "pair_step")
        or (isinstance(node, ast.keyword) and node.arg == "pair_step")
    ]
    assert named == []


def _calls(tree, *names):
    """Names of the functions and methods, at any depth, whose body calls
    one of ``names``."""
    return [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in names
            for call in ast.walk(node)
        )
    ]


def test_one_chain_lattice():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    defined = [
        name for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "chain_lattice"
    ]
    assert defined == ["elpp"]
    assert _calls(trees["elpp"], "chain_lattice") == ["_brute_table"]
    assert _calls(trees["polymer"], "chain_lattice") == ["heavy_site_decomposition"]
    # the most-significant-bit tables, the two spec parsers and the
    # per-table sort-key widths the folds replaced stay gone
    removed = {"msb", "_parse_filter", "_parse_cardinality", "key_width"}
    for name, tree in trees.items():
        assert not _identifiers(tree) & removed, name


def _identifiers(tree):
    """Every name, argument, definition, import alias and attribute."""
    return {
        getattr(node, field) for node in ast.walk(tree)
        for field in ("id", "arg", "name", "attr")
        if isinstance(getattr(node, field, None), str)
    }


def test_stdlib_kernel_grid_cache_and_no_bootstrap_knob():
    removed = {"OrderedDict", "_KERNEL_GRID_CACHE", "_KERNEL_GRID_CACHE_SIZE"}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        assert not _identifiers(tree) & removed, path.name
        assert _params_named(tree, "bootstrap") == [], path.name


def test_ppp_ops_named_once():
    tree = ast.parse((Path(polymerlab.__file__).parent / "cli.py").read_text())
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_PPP_OPS"
    ]
    ops = [key.value for key in table.keys]
    assert ops == ["T", "tildeT", "hatT", "W", "W0"]
    keys = {id(key) for key in table.keys}
    named = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ops and id(node) not in keys
    ]
    assert named == []


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_top_level_imports():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert unused == []


def test_one_replica_context():
    # seeds, the field, beta_n and every per-size scale come from the
    # runner's task context, and no replica runs the full chaos terms
    per_size = {"derive_seed", "sample_field", "beta_at", "quantile", "fluctuation_scale",
                "chaos_terms"}
    replicas = {kind.replica.__name__ for kind in experiments._KINDS.values()}
    tree = ast.parse(Path(experiments.__file__).read_text())
    calls = [
        f"{node.name}: {name}"
        for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in replicas
        for call in ast.walk(node) if isinstance(call, ast.Call)
        for name in [getattr(call.func, "id", getattr(call.func, "attr", None))]
        if name in per_size
    ]
    assert len(replicas) == 4 and calls == []
    for path in SOURCES:
        assert "_counted" not in _defined_names(ast.parse(path.read_text())), path.name
    assert list(inspect.signature(chaos_terms).parameters) == ["field", "beta", "band", "cutoff"]


def test_one_rule_per_option():
    removed = {"_EXACT_COMB_LIMIT", "lipschitz_entropy", "_path_entropy", "states_condition",
               "_label", "_ordered_setup"}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        names = _identifiers(tree)
        assert not names & removed, path.name
        assert not [name for name in names if name.startswith("FILTER_")], path.name
        swaps = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(target, ast.Attribute) and target.attr == "showwarning"
        ]
        assert swaps == [], path.name
    assert [field.name for field in dataclasses.fields(WeightFilter)] == ["lo", "hi"]
    with pytest.raises(ValueError, match="unknown cardinality kind"):
        Cardinality("any", 0)
    assert not {"replicas", "top"} & set(inspect.signature(classify).parameters)


def test_one_owner_per_decision():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    for name, tree in trees.items():
        assert "solve_field" not in _defined_names(tree), name
    relative = [node.lineno for node in ast.walk(trees["elpp"])
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == []
    law_compares = [
        name for name, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.Compare)
        for side in [node.left, *node.comparators]
        if isinstance(side, ast.Attribute) and side.attr == "law"
    ]
    assert law_compares and set(law_compares) == {"environment"}


def test_one_geometry_per_threshold_iteration():
    # each threshold iteration builds its own geometry over the points a
    # chain can use; only its tie check reads row selections of it
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    for name, tree in trees.items():
        assert not _defined_names(tree) & {"top_geometry", "_top_rows"}, name
    assert _functions_calling(trees["continuum"], "ix_") == ["_rows"]
    assert [(name, caller) for name, tree in trees.items()
            for caller in _calls(tree, "_rows")] == [("continuum", "_tied")]
    # the tie check is one top-two pass: it neither solves nor builds
    assert "_tied" not in _calls(trees["continuum"], "solve", "prepare_geometry")
    assert _calls(trees["continuum"], "second_value") == ["_tied"]


def test_threshold_summary_calls_neither_median_nor_percentile():
    # the summary sorts each array once and keeps numpy's bits by its own
    # arithmetic; tests/test_continuum.py checks those bits
    tree = ast.parse((Path(polymerlab.__file__).parent / "continuum.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np"}
    assert "sort" in read
    assert not read & {"median", "percentile", "quantile", "partition"}


def test_each_functional_written_once():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert [(name, caller) for name, tree in trees.items()
            for caller in _calls(tree, "_rate")] == [("elpp", "_step_cost")]
    (prepare,) = [node for node in trees["elpp"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "prepare_geometry"]
    called = [getattr(call.func, "id", getattr(call.func, "attr", None))
              for call in ast.walk(prepare) if isinstance(call, ast.Call)]
    assert called.count("_step_cost") == 2
    assert not [node.lineno for node in ast.walk(prepare) if isinstance(node, ast.BinOp)]
    assert not set(called) & {"square", "divide", "multiply", "where", "fill_diagonal", "_rate"}
    functionals = {"sample_heat_kernel_sum", "chain_value", "lipschitz_chain_value"}
    assert not _identifiers(trees["experiments"]) & functionals


# scipy submodules that take a third of a second to import, and the only
# functions that import them: each where it runs, never at module level
_LAZY_SCIPY = ("scipy.special", "scipy.stats", "scipy.integrate")
_LAZY_SITES = {
    ("polymer", "log_mgf_truncated"), ("elpp", "_rate"), ("environment", "_survival_integral"),
}


def _imports_with_owner(node, owner=None):
    """(innermost enclosing function or None, statement) of every import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield owner, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _imports_with_owner(child, inner)


def _imports_lazy_scipy(stmt):
    if isinstance(stmt, ast.Import):
        names = [alias.name for alias in stmt.names]
    else:
        module = stmt.module or ""
        names = [module] + [f"{module}.{alias.name}" for alias in stmt.names]
    return any(name.startswith(_LAZY_SCIPY) for name in names)


def test_heavy_scipy_imported_only_where_used():
    misplaced, sites = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for owner, stmt in _imports_with_owner(tree):
            if not _imports_lazy_scipy(stmt):
                continue
            if (path.stem, owner) in _LAZY_SITES:
                sites.add((path.stem, owner))
            else:
                misplaced.append(f"{path.name}:{stmt.lineno} in {owner or 'module level'}")
        # nor through `import scipy`: scipy loads a submodule on first access
        misplaced += [
            f"{path.name}:{node.lineno} scipy.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and f"{node.value.id}.{node.attr}" in _LAZY_SCIPY
        ]
    assert misplaced == []
    assert sites == _LAZY_SITES


def _constant_owners(trees, text):
    """(module, function) of every function holding the string ``text``."""
    return [
        (name, func.name) for name, tree in trees.items()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Constant) and node.value == text
    ]


def test_one_rule_each_for_points_windows_and_the_top_set():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    # one elpp function checks point rows; continuum adds only t > 0
    assert _constant_owners(trees, "points must be finite") == [("elpp", "as_points")]
    assert _constant_owners(trees, "duplicate (t, x) points") == [("elpp", "_as_sorted_points")]
    assert "ndim" not in _identifiers(trees["continuum"])
    assert _calls(trees["continuum"], "as_points") == ["_as_points"]
    # entropy sorts and checks its rows through the solver's own rule
    assert "entropy" in _calls(trees["elpp"], "_as_sorted_points")
    assert _functions_calling(trees["elpp"], "lexsort") == ["_as_sorted_points", "top_by_weight"]
    # an empty window's probability is 0, decided in one helper
    assert _calls(trees["experiments"], "gibbs_band_probabilities") == ["_window_probs"]
    compares_lo = {
        func.name for func in ast.walk(trees["experiments"]) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id == "lo"
    }
    assert compares_lo == {"_window_probs"}
    size_keys = {
        key for func in trees["experiments"].body
        if isinstance(func, ast.FunctionDef) and func.name.endswith("_size")
        for ret in ast.walk(func) if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call)
        for key in (kw.arg for kw in ret.value.keywords)
    }
    assert "windows" in size_keys and not size_keys & {"los", "band_hi"}
    # the heavy sites' capped, time-sorted set is select_top's
    assert "heavy_site_decomposition" in _calls(trees["polymer"], "select_top")
    assert _functions_calling(trees["polymer"], "lexsort") == []


def test_campaigns_read_every_rescaling_rule_off_the_pathway_record():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    tree = trees["experiments"]
    # neither imported nor compared with, under any name: no identifier at all
    names = _identifiers(tree)
    assert "LINEAR" not in names
    assert not [name for name in names if name.startswith("ENTROPY_")]
    assert _calls(tree, "quantile") == ["_ordered_size"]
    # no size step gives an entropy: the replica reads its pathway's
    for kind, overrides in [
        (experiments.KIND_REGIME, dict(alpha=1.2, gamma=0.5)),  # R1, the linear pathway
        (experiments.KIND_REGIME, dict(alpha=1.2, gamma=1.0)),  # R2
        (experiments.KIND_REGIME, dict(alpha=0.75, gamma=3.0)),  # R5
        (experiments.KIND_REGIME, dict(alpha=1.2, gamma=1.0, beta_hat=0.0)),
        (experiments.KIND_SMALL_ALPHA, dict(alpha=0.3, gamma=6.0)),
        (experiments.KIND_FLUCTUATION, dict(alpha=1.0, gamma=1.25, beta_hat=0.3)),
        (experiments.KIND_ORDERED, dict(alpha=1.0, gamma=0.0, ell=3, half_width=4)),
    ]:
        config = experiments.ExperimentConfig(kind=kind, sizes=(16,), replicas=1, seed=1,
                                              **overrides)
        spec = experiments._KINDS[kind]
        size = spec.size(config, spec.setup(config), 16, config.beta_at(16))
        assert "entropy" not in size, (kind, overrides)
    # the first chaos term sums in a given box: no second entry point
    for name, other in trees.items():
        assert "_summed_v_n" not in _identifiers(other), name
    assert list(inspect.signature(chaos_v_n).parameters) == [
        "field", "beta", "band", "cutoff", "box"]


_spec = importlib.util.spec_from_file_location(
    "src_reach", Path(__file__).parent.parent / "tools" / "src_reach.py"
)
src_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_reach)


def test_library_only_names_pinned():
    """The definitions that no command, campaign or module-level statement
    reaches (``tools/src_reach.py``), each with its reason to stay:
    - the brute-force chain routes (``brute_force``, its two routes and
      ``_allowed_sizes``, on ``chain_lattice``) are the solver's oracles,
      and ``DisorderField.weight_at`` is the oracles' read of one site;
    - ``gibbs_band_probability`` and ``select_top`` are bound by perfbench;
    - the chaos-expansion and heavy-site functions serve criterion 7
      (``log_mgf_truncated`` integrates ``weight_density``, and
      ``heavy_site_decomposition`` prices its legs with ``walk_kernel``);
    - ``gibbs_site_marginals`` carries the backward transfer mode, a
      measured layer whose removal is a decision of its own;
    - ``ExplicitSchedule`` is ``classify``'s general-sequence input.
    Any change to this list is named in CHANGES.md.
    """
    assert src_reach.unreached() == [
        "elpp._allowed_sizes", "elpp._brute_loop", "elpp._brute_table", "elpp.brute_force",
        "elpp.chain_lattice", "elpp.select_top",
        "environment.DisorderField.weight_at", "environment.weight_density",
        "polymer.ChaosTerms", "polymer.HeavySiteDecomposition", "polymer.centered_first_term",
        "polymer.chaos_terms", "polymer.gibbs_band_probability", "polymer.gibbs_site_marginals",
        "polymer.heavy_site_decomposition", "polymer.log_mgf_truncated", "polymer.walk_kernel",
        "regimes.ExplicitSchedule",
    ]
