"""Command-line interface: ``thalia <command>``.

Commands:

* ``testbed build [--out DIR]`` — run the build pipeline and print the
  per-source :class:`~repro.catalogs.pipeline.BuildReport`; with
  ``--out`` also write the per-source bundle to DIR.
* ``build [--out DIR]`` — top-level alias of ``testbed build``; with the
  global ``--scale N`` this is the scale tier's front door
  (``thalia --scale 8 build``).
* ``build-testbed DIR`` — legacy spelling: build and write the
  per-source bundle (snapshot/wrapper/XML/XSD) under DIR.
* ``run-benchmark`` / ``run`` — score Cohera, IWIZ and the THALIA
  mediator; print the §4.2-style tables and the scoreboard.
* ``query N`` — describe benchmark query N and run its reference XQuery
  against the testbed.
* ``build-site DIR`` — generate the THALIA web site (Fig. 4) under DIR.
* ``serve`` — run the live benchmark service (site + API + score
  uploads) on a bounded worker-pool HTTP server; ``--query-workers K``
  sizes the ``/api/query/batch`` executor.
* ``bundle DIR`` — write the three download zips under DIR.
* ``sources`` — list the testbed's sources.
* ``stats [--extended]`` — testbed statistics and heterogeneity coverage.
* ``selfcheck`` — verify every benchmark invariant over a fresh build.
* ``taxonomy [N] [--no-samples]`` — the §3 heterogeneity classification,
  with live sample elements from the testbed.
* ``gen --cases N --seed S [--tier T] --out PACK_DIR`` — generate a
  deterministic heterogeneity-composition scenario pack (sources,
  synthesized queries, derived gold answers) and validate every case's
  capability-model prediction against the executed answers before
  writing it.
* ``perf collect [--scales CSV] [--perf-workers CSV] [--repeats N]
  [--scenarios PACK_DIR]`` — snapshot per-query plans, timings and
  cache counters into a schema-stamped JSON file (optionally measuring
  a generated scenario pack as extra cells); ``perf report --v1 A
  --v2 B`` diffs two snapshots and exits 1 on plan or timing
  regressions (the CI ``perf-gate``'s engine).

Global build options (before the command): ``--seed N``, ``--scale N``
(catalog multiplier; answers unchanged) and ``--cache-dir DIR`` (on-disk
artifact cache; without it the build reads and writes nothing).  Every
command builds the testbed at most once per invocation; repeated
implicit builds share one in-process instance.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .catalogs import build_testbed, shared_testbed
from .core import (
    HonorRoll,
    get_query,
    render_query_description,
    render_query_matrix,
    render_scoreboard,
    render_system_table,
    run_all,
)
from .systems import cohera, iwiz, thalia_mediator
from .website import SiteGenerator, build_all_bundles
from . import xquery


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thalia",
        description="THALIA: Test Harness for the Assessment of Legacy "
                    "information Integration Approaches (reproduction)")
    parser.add_argument("--seed", type=int, default=2004,
                        help="testbed generation seed (default 2004)")
    parser.add_argument("--scale", type=int, default=1, metavar="N",
                        help="catalog multiplier for scale-tier testbeds "
                             "(default 1; filler courses are multiplied, "
                             "benchmark answers are unchanged)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk artifact cache root (default: no "
                             "cache)")
    commands = parser.add_subparsers(dest="command", required=True)

    testbed = commands.add_parser(
        "testbed", help="testbed build pipeline")
    testbed_commands = testbed.add_subparsers(dest="testbed_command",
                                              required=True)
    testbed_build = testbed_commands.add_parser(
        "build", help="build the testbed and print the build report")
    testbed_build.add_argument("--out", metavar="DIR", default=None,
                               help="also write the per-source bundle "
                                    "under DIR")

    # ``thalia build --scale N`` is the top-level spelling of
    # ``testbed build`` (the scale tier's front door).  ``--scale`` is
    # also accepted after these two subcommands; SUPPRESS keeps the
    # subparser from clobbering a value given before the command.
    top_build = commands.add_parser(
        "build", help="alias of 'testbed build'")
    top_build.add_argument("--out", metavar="DIR", default=None,
                           help="also write the per-source bundle under "
                                "DIR")
    for build_variant in (top_build, testbed_build):
        build_variant.add_argument(
            "--scale", type=int, default=argparse.SUPPRESS, metavar="N",
            help="catalog multiplier (same as the global --scale)")

    build = commands.add_parser(
        "build-testbed", help="write snapshots, configs, XML and XSDs")
    build.add_argument("directory")

    run = commands.add_parser(
        "run-benchmark",
        help="score Cohera, IWIZ and the THALIA mediator")
    run.add_argument("--save-scores", metavar="FILE", default=None,
                     help="persist the honor roll as JSON")

    # ``run`` is the short spelling of ``run-benchmark``; both accept the
    # same options and dispatch to the same handler.
    run_alias = commands.add_parser(
        "run", help="alias of run-benchmark")
    run_alias.add_argument("--save-scores", metavar="FILE", default=None,
                           help="persist the honor roll as JSON")

    query = commands.add_parser(
        "query", help="describe and run one benchmark query")
    query.add_argument("number", type=int, choices=range(1, 13),
                       metavar="N")
    query.add_argument("--explain", action="store_true",
                       help="print the compiled query plan (operator "
                            "tree, rewrites, index-backed paths) before "
                            "the results")
    query.add_argument("--explain-analyze", action="store_true",
                       help="run the query instrumented and print the "
                            "costed plan with estimated vs. actual rows "
                            "and per-operator wall time")

    site = commands.add_parser(
        "build-site", help="generate the THALIA web site")
    site.add_argument("directory")
    site.add_argument("--scores", metavar="FILE", default=None,
                      help="honor-roll JSON produced by run-benchmark "
                           "--save-scores")

    serve = commands.add_parser(
        "serve", help="run the live benchmark service (site + API)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8014,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8014)")
    serve.add_argument("--scores", metavar="FILE",
                       default=None,
                       help="honor-roll JSON-lines store (default: "
                            "thalia_honor_roll.jsonl in the working "
                            "directory)")
    serve.add_argument("--http-threads", type=int, default=8, metavar="N",
                       help="worker threads answering requests "
                            "(default 8)")
    serve.add_argument("--query-workers", type=int, default=4, metavar="K",
                       help="threads executing /api/query/batch items "
                            "(default 4)")
    serve.add_argument("--perf-baseline", metavar="FILE", default=None,
                       help="perf snapshot linked from /api/stats "
                            "(default: $THALIA_PERF_BASELINE or "
                            "PERF_BASELINE.json)")
    serve.add_argument("--fleet", type=int, default=0, metavar="N",
                       help="execute /api/query[/batch] on N worker "
                            "processes sharing a cross-process result "
                            "cache, with admission control (default 0: "
                            "in-process execution)")

    bundle = commands.add_parser(
        "bundle", help="write the three download zips")
    bundle.add_argument("directory")

    commands.add_parser("sources", help="list testbed sources")

    stats = commands.add_parser(
        "stats", help="testbed statistics and heterogeneity coverage")
    stats.add_argument("--extended", action="store_true",
                       help="use the 45-source roadmap testbed")

    commands.add_parser(
        "selfcheck",
        help="verify every benchmark invariant over a fresh build")

    taxonomy = commands.add_parser(
        "taxonomy",
        help="print the twelve-case heterogeneity classification")
    taxonomy.add_argument("number", type=int, nargs="?",
                          choices=range(1, 13), metavar="N",
                          help="show one case only")
    taxonomy.add_argument("--no-samples", action="store_true",
                          help="omit the live sample elements")

    gen = commands.add_parser(
        "gen",
        help="generate a heterogeneity-composition scenario pack")
    gen.add_argument("--cases", type=int, default=25, metavar="N",
                     help="number of scenario cases (default 25)")
    gen.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     metavar="S",
                     help="generation seed (same as the global --seed)")
    gen.add_argument("--tier", choices=("easy", "medium", "hard"),
                     default=None,
                     help="restrict the pack to one difficulty tier")
    gen.add_argument("--out", metavar="PACK_DIR", default=None,
                     help="write the pack under PACK_DIR (omit to only "
                          "validate and print the fingerprint)")
    gen.add_argument("--skip-validate", action="store_true",
                     help="skip the capability-model and executed-query "
                          "agreement checks (faster; generation only)")

    perf = commands.add_parser(
        "perf", help="plan-quality & performance regression framework")
    perf_commands = perf.add_subparsers(dest="perf_command", required=True)

    collect = perf_commands.add_parser(
        "collect",
        help="snapshot per-query plans, timings and cache counters")
    collect.add_argument("--out", metavar="FILE",
                         default="perf-snapshot.json",
                         help="snapshot path (default perf-snapshot.json)")
    collect.add_argument("--scales", metavar="CSV", default="1",
                         help="comma-separated scale tiers (default 1)")
    collect.add_argument("--perf-workers", metavar="CSV", default="1",
                         help="comma-separated worker counts per tier "
                              "(default 1)")
    collect.add_argument("--repeats", type=int, default=5, metavar="N",
                         help="measured batches per (query, cell) "
                              "(default 5)")
    collect.add_argument("--warmup", type=int, default=1, metavar="N",
                         help="discarded warmup batches (default 1)")
    collect.add_argument("--label", default="", metavar="S",
                         help="free-form snapshot label")
    collect.add_argument("--perturb", metavar="CSV", default="",
                         help="test-only: compile these queries (Q3,Q7) "
                              "with the index-path rewrite disabled")
    collect.add_argument("--perturb-estimates", metavar="CSV", default="",
                         help="test-only: plan these queries (Q3,Q7) "
                              "against x100-scaled cardinalities — "
                              "identical answers, wrong estimates")
    collect.add_argument("--scenarios", metavar="PACK_DIR", default=None,
                         help="also measure the synthesized queries of a "
                              "generated scenario pack (thalia gen) as "
                              "extra cells")

    report = perf_commands.add_parser(
        "report",
        help="diff two snapshots; exits 1 on regressions")
    report.add_argument("--v1", required=True, metavar="FILE",
                        help="baseline snapshot")
    report.add_argument("--v2", required=True, metavar="FILE",
                        help="candidate snapshot")
    report.add_argument("--threshold", type=float, default=None,
                        metavar="F",
                        help="median-slowdown gate as a fraction "
                             "(default 0.25)")
    report.add_argument("--min-delta-ns", type=int, default=None,
                        metavar="N",
                        help="absolute noise floor in ns (default 25000)")
    report.add_argument("--enforce-timings",
                        choices=("auto", "always", "never"),
                        default="auto",
                        help="gate on timing regressions: auto = only "
                             "when both snapshots share a host "
                             "fingerprint (default)")
    report.add_argument("--json", metavar="FILE", default=None,
                        help="also write the machine-readable report")
    return parser


def _make_testbed(args: argparse.Namespace, universities=None):
    """Build (or fetch the shared) testbed per the global build options."""
    if universities is not None:
        return build_testbed(seed=args.seed, universities=universities,
                             cache_dir=args.cache_dir, scale=args.scale)
    return shared_testbed(args.seed, cache_dir=args.cache_dir,
                          scale=args.scale)


def _cmd_testbed(args: argparse.Namespace) -> int:
    testbed = _make_testbed(args)
    if args.out:
        target = testbed.save(args.out)
        print(f"wrote {len(testbed)} sources under {target}")
    if testbed.build_report is not None:
        print(testbed.build_report.render())
    return 0


def _cmd_build_testbed(args: argparse.Namespace) -> int:
    testbed = _make_testbed(args)
    target = testbed.save(args.directory)
    print(f"wrote {len(testbed)} sources under {target}")
    return 0


def _cmd_run_benchmark(args: argparse.Namespace) -> int:
    testbed = _make_testbed(args)
    cards = run_all([cohera(), iwiz(), thalia_mediator()], testbed)
    for card in cards:
        print(render_system_table(card))
        print()
    print(render_query_matrix(cards))
    print()
    print(render_scoreboard(cards))
    roll = HonorRoll()
    for card in cards:
        roll.submit(card, submitter="repro")
    print()
    print(roll.render())
    if args.save_scores:
        path = roll.save(args.save_scores)
        print(f"\nscores saved to {path}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    testbed = _make_testbed(args)
    query = get_query(args.number)
    print(render_query_description(query.number))
    print()
    if args.explain_analyze:
        statistics = xquery.collect_statistics(
            testbed.documents, fingerprint=testbed.content_fingerprint())
        plan = xquery.shared_plan_cache().get(query.xquery,
                                              statistics=statistics)
    else:
        plan = xquery.shared_plan_cache().get(query.xquery)
    if args.explain and not args.explain_analyze:
        print(plan.explain())
        print()
    results = plan.execute(testbed.document_resolver(),
                           analyze=args.explain_analyze)
    if args.explain_analyze:
        # Analyzed rendering needs the actuals the execution above just
        # recorded, so it prints after the run (costed: strategies and
        # estimates come from statistics over this very testbed).
        print(plan.explain(analyze=True))
        print()
    print(f"reference query returned {len(results)} item(s) against "
          f"{query.reference}:")
    from .xmlmodel import XmlElement, serialize
    for item in results:
        if isinstance(item, XmlElement):
            print("  " + serialize(item))
        else:
            print(f"  {item}")
    if (args.explain or args.explain_analyze) \
            and plan.last_stats is not None:
        stats = plan.last_stats
        print(f"executed in {stats.exec_ns / 1e6:.2f} ms "
              f"({stats.nodes_visited} nodes visited, "
              f"{stats.index_lookups} index lookups)")
    return 0


def _cmd_build_site(args: argparse.Namespace) -> int:
    testbed = _make_testbed(args)
    if args.scores:
        roll = HonorRoll.load(args.scores)
    else:
        roll = HonorRoll()
        for card in run_all([cohera(), iwiz(), thalia_mediator()],
                            testbed):
            roll.submit(card, submitter="repro")
    root = SiteGenerator(testbed, roll).build(args.directory)
    print(f"site generated under {root} (open {root / 'index.html'})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .server import DEFAULT_SCORES_FILE, HonorRollStore, ThaliaApp, \
        ThaliaServer, WorkerFleet

    testbed = _make_testbed(args)   # global --seed/--scale/--cache-dir
    store = HonorRollStore(args.scores or DEFAULT_SCORES_FILE)
    fleet = None
    if args.fleet > 0:
        fleet = WorkerFleet(testbed, workers=args.fleet)
    app = ThaliaApp(testbed=testbed, store=store,
                    query_workers=args.query_workers,
                    perf_baseline=args.perf_baseline,
                    fleet=fleet)
    server = ThaliaServer(app, host=args.host, port=args.port,
                          pool_size=args.http_threads)
    fleet_note = f", fleet of {fleet.size} worker processes " \
                 f"({fleet.start_method})" if fleet is not None else ""
    print(f"serving THALIA benchmark service on {server.url} "
          f"({len(testbed)} sources, {args.http_threads} worker threads"
          f"{fleet_note}, honor roll: {store.path})", flush=True)

    # SIGTERM drains exactly like Ctrl-C: the acceptor loop exits,
    # in-flight requests finish, then the fleet drains and stops.
    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down...", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        server.stop()
    snapshot = app.metrics.snapshot()
    totals = snapshot["totals"]
    print(f"served {totals['requests']} request(s), "
          f"{totals['errors']} error(s), cache hit-rate "
          f"{totals['cache_hit_rate']:.0%}")
    return 0


def _cmd_bundle(args: argparse.Namespace) -> int:
    testbed = _make_testbed(args)
    for path in build_all_bundles(testbed, args.directory):
        print(f"wrote {path}")
    return 0


def _cmd_sources(args: argparse.Namespace) -> int:
    testbed = _make_testbed(args)
    for bundle in testbed:
        profile = bundle.profile
        queries = ",".join(str(n) for n in profile.heterogeneities) or "-"
        print(f"{bundle.slug:<10} {profile.name:<50} "
              f"records={bundle.stats.records:<3} queries={queries}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .catalogs import coverage_report, extended_universities

    universities = extended_universities() if args.extended else None
    testbed = _make_testbed(args, universities=universities)
    report = coverage_report(testbed)
    print(report.render())
    if not report.fully_covered:
        print("\nWARNING: some heterogeneity cases have no exhibiting "
              "source!")
        return 1
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from .core import validate_benchmark

    testbed = _make_testbed(args)
    result = validate_benchmark(testbed)
    print(result.render())
    return 0 if result.ok else 1


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    from .core import all_cases, render_case, render_taxonomy

    testbed = None if args.no_samples else _make_testbed(args)
    if args.number is not None:
        case = [c for c in all_cases() if c.number == args.number][0]
        print(render_case(case, testbed))
        return 0
    print(render_taxonomy(testbed))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .scenarios import ScenarioSuite, build_pack, write_pack
    from .systems import cohera, iwiz, thalia_mediator

    if args.cases < 1:
        raise SystemExit("thalia gen: --cases needs a positive integer")
    suite = ScenarioSuite.generate(seed=args.seed, cases=args.cases,
                                   tier=args.tier)
    tier_note = f" tier={args.tier}" if args.tier else ""
    print(f"[gen] {len(suite.queries)} case(s) from seed "
          f"{args.seed}{tier_note}")
    testbed = suite.build_testbed()
    print(f"[gen] built {len(testbed)} sources")
    if not args.skip_validate:
        problems = suite.check_query_agreement(testbed)
        problems.extend(suite.check_system_agreement(
            [thalia_mediator(), cohera(), iwiz()], testbed))
        if problems:
            for problem in problems:
                print(f"[gen] PROBLEM: {problem}", file=sys.stderr)
            print(f"[gen] {len(problems)} agreement problem(s); "
                  "refusing to write the pack", file=sys.stderr)
            return 1
        print("[gen] agreement checks passed "
              "(executed queries + 3 capability models)")
    pack = build_pack(suite, testbed)
    histogram = suite.tier_histogram()
    tiers = ", ".join(f"{tier}={histogram[tier]}"
                      for tier in ("easy", "medium", "hard")
                      if tier in histogram)
    print(f"[gen] tiers: {tiers}")
    if args.out:
        write_pack(pack, args.out)
        print(f"[gen] wrote {len(pack.files)} file(s) under {args.out}")
    print(f"[gen] pack fingerprint: {pack.fingerprint}")
    return 0


def _csv_ints(text: str, option: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"thalia perf: {option} must be a "
                         f"comma-separated list of integers, got {text!r}")
    if not values or any(value < 1 for value in values):
        raise SystemExit(f"thalia perf: {option} needs positive integers")
    return values


def _cmd_perf(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .perf import (
        collect_snapshot,
        compare_snapshots,
        load_document,
        render_report,
    )
    from .perf.schema import KIND_SNAPSHOT, SchemaError

    if args.perf_command == "collect":
        perturb = [name for name in args.perturb.split(",") if name.strip()]
        perturb_estimates = [name for name
                             in args.perturb_estimates.split(",")
                             if name.strip()]
        snapshot = collect_snapshot(
            seed=args.seed,
            scales=_csv_ints(args.scales, "--scales"),
            workers=_csv_ints(args.perf_workers, "--perf-workers"),
            repeats=args.repeats,
            warmup=args.warmup,
            label=args.label,
            perturb=perturb,
            perturb_estimates=perturb_estimates,
            scenarios=args.scenarios,
            progress=lambda message: print(f"[perf] {message}"))
        out = Path(args.out)
        out.write_text(json.dumps(snapshot, indent=2) + "\n",
                       encoding="utf-8")
        cells = snapshot["cells"]
        print(f"[perf] wrote {out}: {len(cells)} cell(s) x "
              f"{len(cells[0]['queries'])} queries, "
              f"repeats={snapshot['meta']['repeats']}"
              + (f", perturbed={snapshot['meta']['perturbed']}"
                 if snapshot["meta"]["perturbed"] else "")
              + (f", estimate_perturbed="
                 f"{snapshot['meta']['estimate_perturbed']}"
                 if snapshot["meta"].get("estimate_perturbed") else ""))
        return 0

    try:
        baseline = load_document(args.v1, expect_kind=KIND_SNAPSHOT)
        candidate = load_document(args.v2, expect_kind=KIND_SNAPSHOT)
    except SchemaError as exc:
        print(f"thalia perf report: {exc}", file=sys.stderr)
        return 2
    enforce = {"auto": None, "always": True, "never": False}[
        args.enforce_timings]
    kwargs = {}
    if args.threshold is not None:
        kwargs["threshold"] = args.threshold
    if args.min_delta_ns is not None:
        kwargs["min_delta_ns"] = args.min_delta_ns
    report = compare_snapshots(baseline, candidate,
                               enforce_timings=enforce, **kwargs)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n",
                                   encoding="utf-8")
    print(render_report(report))
    return 0 if report["ok"] else 1


_COMMANDS = {
    "testbed": _cmd_testbed,
    "build": _cmd_testbed,
    "build-testbed": _cmd_build_testbed,
    "stats": _cmd_stats,
    "selfcheck": _cmd_selfcheck,
    "taxonomy": _cmd_taxonomy,
    "run-benchmark": _cmd_run_benchmark,
    "run": _cmd_run_benchmark,
    "query": _cmd_query,
    "build-site": _cmd_build_site,
    "serve": _cmd_serve,
    "bundle": _cmd_bundle,
    "sources": _cmd_sources,
    "gen": _cmd_gen,
    "perf": _cmd_perf,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
