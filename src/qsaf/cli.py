"""Command-line interface.

Exit codes: 0 success, 1 a check or validation reported problems,
2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from . import analyze, catalog, workflows
from .classify import check_mece, classify, fleiss_kappa, parse_ratings_csv
from .composition import entanglement_sets
from .core import UsageLevel
from .errors import QsafError
from .manifest import parse_manifest
from .qasm import export_gates
from .simulate import NonDecreasingEnergyWarning, default_seed


def _resolve(token: str):
    if token.isdigit():
        return catalog.get_primitive(int(token))
    return catalog.find_primitive(token)


def _load_manifest(path: str):
    return parse_manifest(Path(path).read_text(encoding="utf-8"))


def _print_diagnostics(diagnostics) -> int:
    if not diagnostics:
        print("validation clean")
        return 0
    for diag in diagnostics:
        print(diag)
    blocking = sum(1 for d in diagnostics if d.blocking)
    print(f"{len(diagnostics)} finding(s), {blocking} blocking")
    return 1 if blocking else 0


def _cmd_catalog(args) -> int:
    if args.action == "show":
        desc = _resolve(args.primitive)
        print(f"[{desc.manifest_name}]")
        print(f"id = {desc.id}")
        print(f"name = {desc.name}")
        print(f"category = {desc.category_label}")
        for alg in catalog.ALGORITHM_ORDER:
            print(f"usage.{alg.value} = {desc.usage_for(alg).value}")
        print(f"summary = {desc.summary}")
        print(f"complexity = {desc.complexity_label}")
        print(f"levels = {desc.level_range[0]}..{desc.level_range[1]} "
              f"(default {desc.default_level})")
        print(f"reuse_tier = {analyze.reuse_tier(desc.id).value}")
        note = analyze.tier_notes(desc.id)
        if note:
            print(f"tier_note = {note}")
        if desc.params:
            for param in desc.params:
                print(f"param.{param.name} = {param.kind.value}"
                      + (f" ({param.domain})" if param.domain else ""))
        return 0
    min_usage = UsageLevel(args.min_usage) if args.min_usage else \
        UsageLevel.SOMETIMES
    rows = catalog.list_primitives(category=args.category,
                                   algorithm=args.algorithm,
                                   min_usage=min_usage)
    for desc in rows:
        print(f"{desc.id:>2}  {desc.manifest_name:<24} {desc.category_label}")
    return 0


def _cmd_heatmap(_args) -> int:
    print(catalog.usage_heatmap())
    return 0


def _cmd_classify(args) -> int:
    desc = _resolve(args.primitive)
    if desc.is_auxiliary:
        print(f"{desc.manifest_name}: auxiliary (no classification flags)")
        return 0
    category = classify(desc.attributes)
    print(f"{desc.manifest_name}: {category.value}")
    return 0


def _cmd_mece(_args) -> int:
    primitives = catalog.all_primitives()
    violations = check_mece(primitives)
    if not violations:
        aux = sum(d.is_auxiliary for d in primitives)
        print(f"mece check clean: {len(primitives)} primitives: "
              f"{len(primitives) - aux} with their category's one flag, "
              f"{aux} auxiliary with none")
        return 0
    for violation in violations:
        print(f"{violation.primitive_id} {violation.name}: "
              f"{violation.kind}: {violation.message}")
    return 1


def _cmd_kappa(args) -> int:
    matrix = parse_ratings_csv(Path(args.csv).read_text(encoding="utf-8"))
    value = fleiss_kappa(matrix)
    print(f"fleiss_kappa = {value:.6f}")
    print(f"items = {matrix.n_items}")
    print(f"raters = {matrix.n_raters}")
    return 0


def _cmd_validate(args) -> int:
    manifest = _load_manifest(args.manifest)
    diagnostics = manifest.graph.validate(
        strict_contracts=args.strict_contracts)
    if not any(d.blocking for d in diagnostics):
        diagnostics += workflows.directive_problems(manifest)
    return _print_diagnostics(diagnostics)


def _cmd_export(args) -> int:
    manifest = _load_manifest(args.manifest)
    text = export_gates(manifest.graph.flatten())
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    manifest = _load_manifest(args.manifest)
    seed = args.seed if args.seed is not None else default_seed()
    outcome = workflows.simulate_graph(manifest.graph, shots=args.shots,
                                       seed=seed)
    print(workflows.render_simulation(outcome))
    return 0


def _cmd_run(args) -> int:
    manifest = _load_manifest(args.manifest)
    if not manifest.directives:
        print("manifest has no run directives", file=sys.stderr)
        return 1
    for directive in manifest.directives:
        # the report's "warning = ..." lines already carry the message
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonDecreasingEnergyWarning)
            outcome = workflows.execute_directive(manifest, directive,
                                                  args.seed)
        if directive.verb == "simulate":
            print(workflows.render_simulation(outcome))
        else:
            print(workflows.render_minimization(outcome))
    return 0


def _cmd_entanglement(args) -> int:
    manifest = _load_manifest(args.manifest)
    groups = entanglement_sets(manifest.graph)
    for group in sorted(groups, key=lambda s: (len(s), sorted(s))):
        print("{" + ", ".join(str(q) for q in sorted(group)) + "}")
    return 0


def _cmd_analyze(args) -> int:
    desc = _resolve(args.primitive)
    context = analyze.AnalysisContext(nisq_gate_budget=args.nisq_budget)
    profile = analyze.nfr_profile(desc.id, context)
    print(analyze.render_profile(desc.manifest_name, profile))
    return 0


def _cmd_tier(args) -> int:
    if args.primitive:
        desc = _resolve(args.primitive)
        print(f"{desc.manifest_name}: {analyze.reuse_tier(desc.id).value}")
        note = analyze.tier_notes(desc.id)
        if note:
            print(f"note: {note}")
        return 0
    table = analyze.tier_table()
    for tier, ids in table.items():
        names = ", ".join(
            catalog.get_primitive(i).manifest_name for i in ids)
        print(f"[{tier.value}]")
        print(names)
    return 0


def _cmd_complexity(args) -> int:
    desc = _resolve(args.primitive)
    sizes = None
    if args.sizes:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    check = analyze.complexity_check(desc.id, sizes)
    print(analyze.render_complexity_check(check))
    return 0 if check.passed else 1


def _cmd_compare(args) -> int:
    context = analyze.AnalysisContext(regime=args.regime)
    report = analyze.compare(context=context)
    print(analyze.render_tradeoff(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsaf",
        description="catalog, compose, check, and simulate quantum "
                    "circuit primitives")
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="browse the primitive "
                                               "catalog")
    p_catalog.add_argument("action", choices=("list", "show"))
    p_catalog.add_argument("primitive", nargs="?",
                           help="id or name (for show)")
    p_catalog.add_argument("--category")
    p_catalog.add_argument("--algorithm")
    p_catalog.add_argument("--min-usage", dest="min_usage",
                           choices=("ES", "FU", "SU", "NU"))
    p_catalog.set_defaults(func=_cmd_catalog)

    p_heatmap = sub.add_parser("heatmap", help="usage table across the "
                                               "five algorithm families")
    p_heatmap.set_defaults(func=_cmd_heatmap)

    p_classify = sub.add_parser("classify", help="decision-tree category "
                                                 "of a primitive")
    p_classify.add_argument("primitive")
    p_classify.set_defaults(func=_cmd_classify)

    p_mece = sub.add_parser("mece", help="check the catalog's category "
                                         "flags are exclusive and total")
    p_mece.set_defaults(func=_cmd_mece)

    p_kappa = sub.add_parser("kappa", help="Fleiss kappa of a ratings CSV")
    p_kappa.add_argument("csv")
    p_kappa.set_defaults(func=_cmd_kappa)

    p_validate = sub.add_parser("validate", help="diagnose a manifest's "
                                                 "architecture graph")
    p_validate.add_argument("manifest")
    p_validate.add_argument("--strict-contracts", action="store_true")
    p_validate.set_defaults(func=_cmd_validate)

    p_export = sub.add_parser("export", help="flatten a manifest and emit "
                                             "OPENQASM 2.0")
    p_export.add_argument("manifest")
    p_export.add_argument("-o", "--output")
    p_export.set_defaults(func=_cmd_export)

    p_simulate = sub.add_parser("simulate", help="flatten a manifest and "
                                                 "sample counts")
    p_simulate.add_argument("manifest")
    p_simulate.add_argument("--shots", type=int, default=512)
    p_simulate.add_argument("--seed", type=int)
    p_simulate.set_defaults(func=_cmd_simulate)

    p_run = sub.add_parser("run", help="execute a manifest's run "
                                       "directives")
    p_run.add_argument("manifest")
    p_run.add_argument("--seed", type=int)
    p_run.set_defaults(func=_cmd_run)

    p_ent = sub.add_parser("entanglement", help="entangled qubit groups "
                                                "of the flattened graph")
    p_ent.add_argument("manifest")
    p_ent.set_defaults(func=_cmd_entanglement)

    p_analyze = sub.add_parser("analyze", help="nine-dimension profile of "
                                               "a primitive")
    p_analyze.add_argument("primitive")
    p_analyze.add_argument("--nisq-budget", dest="nisq_budget", type=int,
                           default=analyze.DEFAULT_NISQ_GATE_BUDGET)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_tier = sub.add_parser("tier", help="reuse tier of one primitive or "
                                         "the whole catalog")
    p_tier.add_argument("primitive", nargs="?")
    p_tier.set_defaults(func=_cmd_tier)

    p_complexity = sub.add_parser("complexity", help="growth-ratio check "
                                                     "against the model")
    p_complexity.add_argument("primitive")
    p_complexity.add_argument("--sizes", help="comma-separated sizes")
    p_complexity.set_defaults(func=_cmd_complexity)

    p_compare = sub.add_parser("compare", help="shallow vs expressive "
                                               "ansatz trade-off")
    p_compare.add_argument("--regime", choices=("nisq", "fault_tolerant"),
                           default="nisq")
    p_compare.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" \
            and not args.primitive:
        parser.error("catalog show needs a primitive id or name")
    try:
        return args.func(args)
    except (OSError, ValueError, QsafError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
