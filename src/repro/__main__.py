"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``        train a GCN on a (scaled) Table-1 dataset and report
                 loss/accuracy/epoch stats;
``experiment``   run one paper table/figure driver by name;
``datasets``     list the Table-1 dataset registry;
``machines``     list the modelled machines;
``plan``         memory planning for a dataset/hidden-width/machine;
``parallel``     multi-node parallelism planning (``parallel plan``
                 prints the per-layer scheme mixture with predicted
                 comm/compute costs);
``serve-bench``  online-inference serving benchmark (latency/throughput);
``dynamic``      mixed query/mutation/retrain serving on a mutating
                 graph (``dynamic run``);
``telemetry``    instrumented runs, metric summaries, and the
                 perf-regression gate (``telemetry diff``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import GiB
from repro.datasets.specs import table1_rows
from repro.errors import DeviceOutOfMemoryError, ReproError
from repro.utils.format import ascii_table, format_bytes, format_seconds

#: experiment name -> figures-module driver attribute.
EXPERIMENTS = {
    "table1": "table1",
    "fig5": "fig5_breakdown",
    "fig6": "fig6_permutation_timeline",
    "fig7": "fig7_perm_overlap_speedup",
    "fig8": "fig8_overlap_timeline",
    "fig9": "fig9_degree_scaling",
    "fig10": "fig10_dgxv100_runtime",
    "fig11": "fig11_dgxv100_speedup",
    "fig12": "fig12_memory_footprint",
    "fig13": "fig13_dgxa100_runtime",
    "fig14": "fig14_dgxa100_speedup",
    "table2": "table2_distgnn",
    "table3": "table3_mggcn_a100",
    "sec51": "sec51_partitioning_analysis",
    "sec66": "sec66_vs_distgnn",
    "accuracy": "accuracy_parity",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MG-GCN reproduction: simulated multi-GPU GCN training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a GCN on a scaled dataset")
    train.add_argument("dataset", help="Table-1 dataset name")
    train.add_argument("--scale", type=float, default=0.01)
    train.add_argument("--machine", default="dgx-a100",
                       choices=["dgx1", "dgx-v100", "dgx-a100"])
    train.add_argument("--gpus", type=int, default=8)
    train.add_argument("--hidden", type=int, default=128)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--lr", type=float, default=1e-2)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--no-permute", action="store_true")
    train.add_argument("--no-overlap", action="store_true")
    train.add_argument("--capture", action="store_true",
                       help="capture epoch 2 into a plan and replay the rest")

    exp = sub.add_parser("experiment", help="run one paper table/figure driver")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))

    sub.add_parser("datasets", help="list the Table-1 dataset registry")
    sub.add_parser("machines", help="list the modelled machines")

    plan = sub.add_parser("plan", help="memory planning for a configuration")
    plan.add_argument("dataset")
    plan.add_argument("--hidden", type=int, default=512)
    plan.add_argument("--machine", default="dgx1",
                      choices=["dgx1", "dgx-v100", "dgx-a100"])

    par = sub.add_parser(
        "parallel", help="multi-node parallelism planning"
    )
    par_sub = par.add_subparsers(dest="parallel_command", required=True)
    pplan = par_sub.add_parser(
        "plan",
        help="per-layer parallelism choices for a dataset x cluster",
    )
    pplan.add_argument("dataset", help="Table-1 dataset name")
    pplan.add_argument("--scale", type=float, default=1.0)
    pplan.add_argument("--machine", default="dgx1",
                       choices=["dgx1", "dgx-v100", "dgx-a100"],
                       help="per-node machine template")
    pplan.add_argument("--nodes", type=int, default=1,
                       help="number of nodes (NIC-connected)")
    pplan.add_argument("--gpus", type=int, default=None,
                       help="total GPUs (default: every GPU of the cluster)")
    pplan.add_argument("--hidden", type=int, default=128)
    pplan.add_argument("--layers", type=int, default=2)
    pplan.add_argument("--partition", default="uniform",
                       choices=["uniform", "resource_aware"],
                       help="row-partition strategy "
                            "(mirrors TrainerConfig.partition_strategy)")
    pplan.add_argument("--cache-staleness", type=int, default=None,
                       metavar="K",
                       help="price the training-time embedding cache at "
                            "staleness K into the plan (default: off)")
    pplan.add_argument("--cache-budget", type=int, default=None,
                       metavar="BYTES",
                       help="per-rank cache byte budget (default: unbounded)")
    pplan.add_argument("--json", action="store_true",
                       help="emit the plan as JSON instead of the table")

    report = sub.add_parser(
        "report", help="re-measure all experiments into a markdown report"
    )
    report.add_argument("output", help="output .md path")
    report.add_argument("--include-slow", action="store_true",
                        help="also run the slow functional sweeps")

    serve = sub.add_parser(
        "serve-bench", help="online-inference serving benchmark"
    )
    serve.add_argument("dataset", help="Table-1 dataset name")
    serve.add_argument("--scale", type=float, default=0.01)
    serve.add_argument("--machine", default="dgx-a100",
                       choices=["dgx1", "dgx-v100", "dgx-a100"])
    serve.add_argument("--gpus", type=int, default=4)
    serve.add_argument("--hidden", type=int, default=64)
    serve.add_argument("--layers", type=int, default=2)
    serve.add_argument("--requests", type=int, default=200)
    serve.add_argument("--rate", type=float, default=2000.0,
                       help="mean arrival rate, requests/simulated second")
    serve.add_argument("--skew", type=float, default=1.0,
                       help="Zipf skew of query targets (0 = uniform)")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--max-wait", type=float, default=1e-3)
    serve.add_argument("--cache-entries", type=int, default=None,
                       help="embedding-cache capacity (default: 2n, 0 = off)")
    serve.add_argument("--pinned", type=int, default=None,
                       help="pinned hot vertices (default: n/100)")
    serve.add_argument("--cold", action="store_true",
                       help="skip the warm-up forward (cold cache)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--trace", default=None,
                       help="write a Chrome trace JSON of the run here")

    dyn = sub.add_parser(
        "dynamic",
        help="dynamic graphs: mixed query/mutation/retrain serving",
    )
    dyn_sub = dyn.add_subparsers(dest="dynamic_command", required=True)
    drun = dyn_sub.add_parser(
        "run", help="serve a query stream while the graph mutates"
    )
    drun.add_argument("dataset", help="Table-1 dataset name")
    drun.add_argument("--scale", type=float, default=0.01)
    drun.add_argument("--machine", default="dgx-a100",
                      choices=["dgx1", "dgx-v100", "dgx-a100"])
    drun.add_argument("--gpus", type=int, default=4)
    drun.add_argument("--hidden", type=int, default=64)
    drun.add_argument("--layers", type=int, default=2)
    drun.add_argument("--requests", type=int, default=200)
    drun.add_argument("--rate", type=float, default=2000.0,
                      help="query arrival rate (req/s)")
    drun.add_argument("--skew", type=float, default=1.0,
                      help="query Zipf skew over degree rank")
    drun.add_argument("--mutation-batches", type=int, default=5)
    drun.add_argument("--mutation-rate", type=float, default=50.0,
                      help="mutation-batch arrival rate (batches/s)")
    drun.add_argument("--edges-per-batch", type=int, default=8)
    drun.add_argument("--mutation-skew", type=float, default=0.8,
                      help="Zipf skew of mutated-edge endpoints")
    drun.add_argument("--bursty", action="store_true",
                      help="bursty mutation arrivals instead of Poisson")
    drun.add_argument("--retrain-epochs", type=int, default=0,
                      help="warm-start retrain epochs per generation")
    drun.add_argument("--rebalance-threshold", type=float, default=None,
                      help="max/mean cost ratio that triggers a repartition "
                           "(omit to disable rebalancing)")
    drun.add_argument("--max-batch", type=int, default=8)
    drun.add_argument("--max-wait", type=float, default=1e-3)
    drun.add_argument("--seed", type=int, default=0)
    drun.add_argument("--snapshot", default=None,
                      help="write a regression-gate snapshot JSON here")

    tele = sub.add_parser(
        "telemetry",
        help="instrumented runs, metric summaries, regression gating",
    )
    tele_sub = tele.add_subparsers(dest="telemetry_command", required=True)

    trun = tele_sub.add_parser(
        "run", help="run an instrumented train(+serve) and export metrics"
    )
    trun.add_argument("dataset", help="Table-1 dataset name")
    trun.add_argument("--scale", type=float, default=0.01)
    trun.add_argument("--machine", default="dgx-a100",
                      choices=["dgx1", "dgx-v100", "dgx-a100"])
    trun.add_argument("--gpus", type=int, default=4)
    trun.add_argument("--hidden", type=int, default=64)
    trun.add_argument("--layers", type=int, default=2)
    trun.add_argument("--epochs", type=int, default=5)
    trun.add_argument("--seed", type=int, default=0)
    trun.add_argument("--serve-requests", type=int, default=0,
                      help="also serve N online requests on the same hub")
    trun.add_argument("--trace-ops", action="store_true",
                      help="record per-op spans (heavier traces)")
    trun.add_argument("--snapshot", default=None,
                      help="write a regression-gate snapshot JSON here")
    trun.add_argument("--prometheus", default=None,
                      help="write a Prometheus text exposition here")
    trun.add_argument("--trace", default=None,
                      help="write a merged Chrome trace JSON here")
    trun.add_argument("--jsonl", default=None,
                      help="write a JSONL metrics+spans export here")

    twhy = tele_sub.add_parser(
        "why",
        help="critical-path attribution: why was a run (or epoch) slow",
    )
    twhy.add_argument(
        "target",
        help="Table-1 dataset name to train-and-attribute, or the path "
             "of a flight-recorder postmortem bundle to analyze",
    )
    twhy.add_argument("--scale", type=float, default=0.01)
    twhy.add_argument("--machine", default="dgx-a100",
                      choices=["dgx1", "dgx-v100", "dgx-a100"])
    twhy.add_argument("--gpus", type=int, default=4)
    twhy.add_argument("--hidden", type=int, default=64)
    twhy.add_argument("--layers", type=int, default=2)
    twhy.add_argument("--epochs", type=int, default=5)
    twhy.add_argument("--seed", type=int, default=0)
    twhy.add_argument("--epoch", type=int, default=None,
                      help="attribute this epoch (default: the slowest)")
    twhy.add_argument("--top", type=int, default=10,
                      help="ranked path ops to print")
    twhy.add_argument("--json", default=None,
                      help="write the report(s) as JSON here")
    twhy.add_argument("--trace", default=None,
                      help="write a Chrome trace (timeline + critical "
                           "path overlay) here")

    tsum = tele_sub.add_parser(
        "summary", help="print the flattened metrics of a snapshot"
    )
    tsum.add_argument("snapshot", help="snapshot / BENCH json path")

    tdiff = tele_sub.add_parser(
        "diff", help="regression gate: compare a current snapshot "
                     "against a baseline (exit 1 on regression)"
    )
    tdiff.add_argument("baseline", help="baseline snapshot / BENCH json")
    tdiff.add_argument("current", help="current snapshot / BENCH json")
    tdiff.add_argument("--rtol", type=float, default=None,
                       help="default relative tolerance (default 0.05)")
    tdiff.add_argument("--tolerance", action="append", default=[],
                       metavar="PATTERN=RTOL",
                       help="per-metric tolerance (fnmatch pattern; "
                            "first match wins; repeatable)")
    tdiff.add_argument("--ignore", action="append", default=[],
                       metavar="PATTERN",
                       help="metric pattern to skip entirely (repeatable)")
    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import MGGCNTrainer, TrainerConfig
    from repro.datasets import load_dataset
    from repro.hardware import get_machine
    from repro.nn import GCNModelSpec

    dataset = load_dataset(args.dataset, scale=args.scale, learnable=True,
                           seed=args.seed)
    model = GCNModelSpec.build(dataset.d0, args.hidden, dataset.num_classes,
                               args.layers)
    config = TrainerConfig(
        permute=not args.no_permute,
        overlap=not args.no_overlap,
        lr=args.lr,
        seed=args.seed,
        capture_epochs=args.capture,
    )
    trainer = MGGCNTrainer(
        dataset, model, machine=get_machine(args.machine),
        num_gpus=args.gpus, config=config,
    )
    print(f"training {dataset.name} (n={dataset.n:,}, m={dataset.m:,}) "
          f"on {args.gpus}x {args.machine}")
    stats = None
    for epoch in range(1, args.epochs + 1):
        stats = trainer.train_epoch()
        if epoch == 1 or epoch % max(args.epochs // 5, 1) == 0:
            print(f"  epoch {epoch:>4}: loss {stats.loss:.4f}  "
                  f"sim {format_seconds(stats.epoch_time)}")
    print(f"test accuracy: {trainer.evaluate('test'):.4f}")
    print(f"peak GPU memory: {format_bytes(stats.peak_memory)}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    driver = getattr(figures, EXPERIMENTS[args.name])
    driver(verbose=True)
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    print(
        ascii_table(
            ["dataset", "n", "m", "d(0)", "d(L)", "k"],
            table1_rows(),
        )
    )
    return 0


def _cmd_machines(_args: argparse.Namespace) -> int:
    from repro.hardware import dgx1, dgx_a100

    rows = []
    for machine in (dgx1(), dgx_a100()):
        rows.append(
            [
                machine.name,
                machine.num_gpus,
                machine.gpu.name,
                format_bytes(machine.gpu.memory_bytes),
                f"{machine.gpu.memory_bandwidth / 1e9:.0f} GB/s",
                "NVSwitch" if machine.has_switch else "cube-mesh",
            ]
        )
    print(ascii_table(
        ["machine", "GPUs", "GPU", "memory", "HBM bw", "fabric"], rows,
    ))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.hardware import get_machine
    from repro.profiling import max_layers_that_fit

    dataset = load_dataset(args.dataset, symbolic=True)
    machine = get_machine(args.machine)
    rows = []
    for gpus in (1, 2, 4, 8):
        layers = max_layers_that_fit(
            dataset, args.hidden, num_gpus=gpus,
            memory_budget=machine.gpu.memory_bytes,
        )
        rows.append([gpus, layers if layers else "does not fit"])
    print(f"{dataset.name} @ hidden {args.hidden} on {machine.name} "
          f"({format_bytes(machine.gpu.memory_bytes)}/GPU):")
    print(ascii_table(["GPUs", "max layers"], rows))
    return 0


def _parallel_plan(args: argparse.Namespace) -> int:
    import json

    from repro.cache import CachePolicy
    from repro.core.partitioner import preview_partition
    from repro.datasets import load_dataset
    from repro.hardware import get_machine
    from repro.hardware.machines import multi_node_cluster
    from repro.nn import GCNModelSpec
    from repro.parallel import ParallelismPlanner

    dataset = load_dataset(args.dataset, scale=args.scale, symbolic=True)
    node = get_machine(args.machine)
    machine = (
        multi_node_cluster(args.nodes, node=node) if args.nodes > 1 else node
    )
    model = GCNModelSpec.build(
        dataset.d0, args.hidden, dataset.num_classes, args.layers
    )
    policy = None
    if args.cache_staleness is not None:
        policy = CachePolicy(
            staleness_epochs=args.cache_staleness,
            budget_bytes=args.cache_budget,
        )
    planner = ParallelismPlanner(
        dataset, model, machine, num_gpus=args.gpus, cache_policy=policy
    )
    plan = planner.plan()

    # partition quality: resource-aware splits need concrete row costs,
    # so re-load functionally when the graph is small enough to afford it.
    stats_dataset = dataset
    if (
        args.partition == "resource_aware"
        and dataset.n <= 250_000
        and dataset.m <= 20_000_000
    ):
        stats_dataset = load_dataset(args.dataset, scale=args.scale)
    quality = preview_partition(
        stats_dataset, machine, planner.P, strategy=args.partition
    )
    # expected epoch wire bytes with/without the training cache (the
    # preview defaults to staleness 1, unbounded budget, when no
    # --cache-staleness was given).
    preview_policy = policy or CachePolicy(staleness_epochs=1)
    bytes_full = planner.broadcast_bytes_per_epoch()
    bytes_cached = planner.broadcast_bytes_per_epoch(preview_policy)

    if args.json:
        out = plan.to_dict()
        out["partition_quality"] = quality
        out["broadcast_bytes_per_epoch"] = {
            "uncached": bytes_full,
            "cached": bytes_cached,
            "cache_staleness": preview_policy.staleness_epochs,
        }
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(plan.explain())
        print(
            f"partition ({quality['strategy']}): "
            f"nnz imbalance {quality['nnz_imbalance']:.3f}, "
            f"row imbalance {quality['row_imbalance']:.3f}, "
            f"byte imbalance {quality['byte_imbalance']:.3f}"
        )
        if quality["strategy"] != args.partition:
            print(
                f"  (note: {args.partition} falls back to "
                f"{quality['strategy']} on symbolic datasets; rerun with a "
                f"smaller --scale for concrete row costs)"
            )
        saved = bytes_full - bytes_cached
        pct = 100.0 * saved / bytes_full if bytes_full else 0.0
        print(
            f"broadcast bytes/epoch: {format_bytes(bytes_full)} uncached, "
            f"{format_bytes(bytes_cached)} with cache @ staleness "
            f"{preview_policy.staleness_epochs} (-{pct:.0f}%)"
        )
    return 0


def _cmd_parallel(args: argparse.Namespace) -> int:
    return {
        "plan": _parallel_plan,
    }[args.parallel_command](args)


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.hardware import get_machine
    from repro.nn import GCNModelSpec
    from repro.nn.init import init_weights
    from repro.profiling import export_chrome_trace
    from repro.serve import ServingConfig, ServingEngine, poisson_workload

    dataset = load_dataset(args.dataset, scale=args.scale, learnable=True,
                           seed=args.seed)
    spec = GCNModelSpec.build(dataset.d0, args.hidden, dataset.num_classes,
                              args.layers)
    cache_entries = (
        2 * dataset.n if args.cache_entries is None else args.cache_entries
    )
    pinned = max(dataset.n // 100, 1) if args.pinned is None else args.pinned
    config = ServingConfig(
        machine=get_machine(args.machine),
        num_gpus=args.gpus,
        cache_entries=cache_entries,
        num_pinned=pinned if cache_entries else 0,
        max_batch_size=args.max_batch,
        max_wait=args.max_wait,
    )
    engine = ServingEngine(
        dataset, init_weights(spec.layer_dims, seed=args.seed), spec,
        config=config,
    )
    mode = "cold"
    if cache_entries and not args.cold:
        engine.warm_cache()
        mode = "warm"
    requests = poisson_workload(
        dataset, args.requests, rate=args.rate, skew=args.skew,
        seed=args.seed,
    )
    result = engine.serve(requests)
    s = result.summary
    print(f"served {args.requests} requests on {dataset.name} "
          f"(n={dataset.n:,}) @ {args.gpus}x {args.machine}, {mode} cache")
    rows = [
        ["throughput", f"{s['throughput_rps']:,.0f} req/s"],
        ["p50 latency", format_seconds(s["latency_p50"])],
        ["p95 latency", format_seconds(s["latency_p95"])],
        ["p99 latency", format_seconds(s["latency_p99"])],
        ["mean batch size", f"{s['mean_batch_size']:.2f}"],
        ["max queue depth", f"{s['max_queue_depth']:.0f}"],
        ["cache hit rate", f"{s.get('cache_hit_rate', 0.0):.1%}"],
    ]
    print(ascii_table(["metric", "value"], rows))
    if args.trace:
        export_chrome_trace(engine.ctx.engine.trace, args.trace)
        print(f"wrote trace to {args.trace}")
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    from repro.core import TrainerConfig
    from repro.datasets import load_dataset
    from repro.dynamic import (
        DynamicGraph,
        DynamicServingEngine,
        IncrementalTrainer,
        Rebalancer,
        bursty_mutations,
        poisson_mutations,
    )
    from repro.hardware import get_machine
    from repro.nn import GCNModelSpec
    from repro.nn.init import init_weights
    from repro.serve import ServingConfig, poisson_workload
    from repro.telemetry import Telemetry, write_snapshot

    telemetry = Telemetry(run_id=f"{args.dataset}-dynamic")
    dataset = load_dataset(args.dataset, scale=args.scale, learnable=True,
                           seed=args.seed)
    spec = GCNModelSpec.build(dataset.d0, args.hidden, dataset.num_classes,
                              args.layers)
    graph = DynamicGraph(dataset)
    machine = get_machine(args.machine)
    rebalancer = None
    if args.rebalance_threshold is not None:
        rebalancer = Rebalancer(args.gpus,
                                threshold=args.rebalance_threshold,
                                feature_dim=dataset.d0, machine=machine)
    incremental = None
    if args.retrain_epochs > 0:
        incremental = IncrementalTrainer(
            graph, spec, num_gpus=args.gpus,
            config=TrainerConfig(seed=args.seed),
            retrain_epochs_per_generation=args.retrain_epochs,
        )
        weights = incremental.trainer.get_weights()
    else:
        weights = init_weights(spec.layer_dims, seed=args.seed)
    engine = DynamicServingEngine(
        graph, weights, spec,
        config=ServingConfig(machine=machine, num_gpus=args.gpus,
                             cache_entries=2 * dataset.n,
                             num_pinned=max(dataset.n // 100, 1),
                             max_batch_size=args.max_batch,
                             max_wait=args.max_wait),
        telemetry=telemetry,
        rebalancer=rebalancer,
        incremental=incremental,
    )
    requests = poisson_workload(dataset, args.requests, rate=args.rate,
                                skew=args.skew, seed=args.seed)
    if args.bursty:
        mutations = bursty_mutations(
            dataset, max(args.mutation_batches // 2, 1), burst_size=2,
            burst_rate=args.mutation_rate,
            edges_per_batch=args.edges_per_batch,
            skew=args.mutation_skew, seed=args.seed + 1)
    else:
        mutations = poisson_mutations(
            dataset, args.mutation_batches, rate=args.mutation_rate,
            edges_per_batch=args.edges_per_batch,
            skew=args.mutation_skew, seed=args.seed + 1)
    result = engine.run(requests, mutations)
    print(f"served {args.requests} requests across "
          f"{len(result.generations)} generations on {dataset.name} "
          f"(n={dataset.n:,}) @ {args.gpus}x {args.machine}")
    rows = [
        [
            str(g.generation),
            str(g.mutations_applied),
            str(g.rows_rebuilt),
            f"{g.cache_entries_delta_evicted}/{g.cache_flush_equivalent}",
            str(g.rebalance_moves),
            str(g.retrain_epochs),
            f"{g.num_vertices:,}",
            f"{g.num_edges:,}",
        ]
        for g in result.generations
    ]
    print(ascii_table(
        ["gen", "muts", "rows", "evicted/resident", "moves", "retrain",
         "vertices", "edges"],
        rows,
    ))
    s = result.summary
    flush = result.total_flush_equivalent
    frac = result.total_delta_evicted / flush if flush else 0.0
    print(ascii_table(["metric", "value"], [
        ["throughput", f"{s['throughput_rps']:,.0f} req/s"],
        ["p50 latency", format_seconds(s["latency_p50"])],
        ["p99 latency", format_seconds(s["latency_p99"])],
        ["cache hit rate", f"{s.get('cache_hit_rate', 0.0):.1%}"],
        ["delta-evicted fraction", f"{frac:.1%} of flush-equivalent"],
    ]))
    if args.snapshot:
        meta = {
            "dataset": args.dataset, "scale": args.scale,
            "machine": args.machine, "gpus": args.gpus,
            "requests": args.requests,
            "mutation_batches": args.mutation_batches,
            "retrain_epochs": args.retrain_epochs, "seed": args.seed,
        }
        write_snapshot(args.snapshot, telemetry.registry.flatten(), meta)
        print(f"wrote snapshot to {args.snapshot}")
    return 0


def _telemetry_run(args: argparse.Namespace) -> int:
    import json

    from repro.core import MGGCNTrainer, TrainerConfig
    from repro.datasets import load_dataset
    from repro.hardware import get_machine
    from repro.nn import GCNModelSpec
    from repro.telemetry import (
        Telemetry,
        merged_chrome_trace,
        render_summary,
        to_prometheus,
        write_jsonl,
        write_snapshot,
    )
    from repro.training import TrainingLoop

    telemetry = Telemetry(run_id=f"{args.dataset}-train",
                          trace_ops=args.trace_ops)
    dataset = load_dataset(args.dataset, scale=args.scale, learnable=True,
                           seed=args.seed)
    model = GCNModelSpec.build(dataset.d0, args.hidden, dataset.num_classes,
                               args.layers)
    trainer = MGGCNTrainer(
        dataset, model, machine=get_machine(args.machine),
        num_gpus=args.gpus,
        config=TrainerConfig(seed=args.seed),
    )
    loop = TrainingLoop(trainer, max_epochs=args.epochs, eval_every=0,
                        telemetry=telemetry)
    loop.run()
    sections = {"train": list(trainer.ctx.engine.trace)}

    if args.serve_requests > 0:
        from repro.nn.init import init_weights
        from repro.serve import ServingConfig, ServingEngine, poisson_workload

        serving = ServingEngine(
            dataset, init_weights(model.layer_dims, seed=args.seed), model,
            config=ServingConfig(machine=get_machine(args.machine),
                                 num_gpus=args.gpus,
                                 cache_entries=2 * dataset.n,
                                 num_pinned=max(dataset.n // 100, 1)),
            telemetry=telemetry,
        )
        serving.warm_cache()
        serving.serve(poisson_workload(dataset, args.serve_requests,
                                       rate=2000.0, seed=args.seed))
        sections["serve"] = list(serving.ctx.engine.trace)

    print(render_summary(telemetry.registry, telemetry.tracer))
    meta = {
        "dataset": args.dataset, "scale": args.scale,
        "machine": args.machine, "gpus": args.gpus,
        "epochs": args.epochs, "serve_requests": args.serve_requests,
        "seed": args.seed,
    }
    if args.snapshot:
        write_snapshot(args.snapshot, telemetry.registry.flatten(), meta)
        print(f"wrote snapshot to {args.snapshot}")
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(to_prometheus(telemetry.registry))
        print(f"wrote Prometheus exposition to {args.prometheus}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(merged_chrome_trace(sections, telemetry.tracer), fh)
        print(f"wrote merged Chrome trace to {args.trace}")
    if args.jsonl:
        write_jsonl(args.jsonl, telemetry.registry, telemetry.tracer,
                    meta=meta)
        print(f"wrote JSONL export to {args.jsonl}")
    return 0


def _telemetry_why(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.telemetry.critpath import critical_path, critpath_to_chrome_events

    if os.path.exists(args.target):
        # postmortem-bundle mode: attribute the black box after the fact.
        from repro.telemetry.flightrec import (
            bundle_events,
            bundle_to_chrome_trace,
            load_bundle,
        )

        bundle = load_bundle(args.target)
        meta = bundle.get("meta", {})
        trigger = meta.get("trigger", "?")
        print(f"flight bundle: trigger={trigger} t={meta.get('time', 0):g} "
              f"run={meta.get('run_id', '?')}")
        reports = {}
        for section, events in sorted(bundle_events(bundle).items()):
            report = critical_path(events)
            reports[section] = report
            print(f"\nsection [{section}] "
                  f"({len(events)} recorded ops in window)")
            print(report.render(top=args.top))
        annotations = [
            r for r in bundle.get("records", ()) if r.get("kind") != "op"
        ]
        if annotations:
            print(f"\nannotations ({len(annotations)}):")
            for r in annotations[-20:]:
                kind = r.get("kind")
                rest = {k: v for k, v in r.items() if k != "kind"}
                print(f"  {kind}: {json.dumps(rest, sort_keys=True)}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump({s: r.to_dict() for s, r in reports.items()},
                          fh, indent=2, sort_keys=True)
            print(f"\nwrote reports to {args.json}")
        if args.trace:
            events = bundle_to_chrome_trace(bundle)
            for report in reports.values():
                events.extend(critpath_to_chrome_events(report))
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(events, fh)
            print(f"wrote Chrome trace to {args.trace}")
        return 0

    # dataset mode: run an instrumented training and attribute an epoch.
    from repro.core import MGGCNTrainer, TrainerConfig
    from repro.datasets import load_dataset
    from repro.errors import ConfigurationError
    from repro.hardware import get_machine
    from repro.nn import GCNModelSpec
    from repro.profiling.trace_export import merge_chrome_traces
    from repro.telemetry import Telemetry
    from repro.training import TrainingLoop

    telemetry = Telemetry(run_id=f"{args.target}-why")
    dataset = load_dataset(args.target, scale=args.scale, learnable=True,
                           seed=args.seed)
    model = GCNModelSpec.build(dataset.d0, args.hidden, dataset.num_classes,
                               args.layers)
    trainer = MGGCNTrainer(
        dataset, model, machine=get_machine(args.machine),
        num_gpus=args.gpus, config=TrainerConfig(seed=args.seed),
    )
    loop = TrainingLoop(trainer, max_epochs=args.epochs, eval_every=0,
                        telemetry=telemetry, critpath_every=1)
    loop.run()
    times = loop.history.epoch_times
    if args.epoch is not None:
        if not (1 <= args.epoch <= len(times)):
            raise ConfigurationError(
                f"--epoch {args.epoch} outside trained range "
                f"1..{len(times)}"
            )
        epoch = args.epoch
    else:
        epoch = max(range(1, len(times) + 1), key=lambda e: times[e - 1])
    report = loop.critpath_reports[epoch]
    print(f"{dataset.name}: {len(times)} epochs on {args.gpus}x "
          f"{args.machine}; attributing epoch {epoch} "
          f"({times[epoch - 1]:.6g} s"
          + (", slowest)" if args.epoch is None else ")"))
    print(report.render(top=args.top))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({str(e): r.to_dict()
                       for e, r in sorted(loop.critpath_reports.items())},
                      fh, indent=2, sort_keys=True)
        print(f"wrote per-epoch reports to {args.json}")
    if args.trace:
        events = merge_chrome_traces(
            {"train": list(trainer.ctx.engine.trace)},
            extra_events=critpath_to_chrome_events(report),
        )
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(events, fh)
        print(f"wrote Chrome trace to {args.trace}")
    return 0


def _telemetry_summary(args: argparse.Namespace) -> int:
    from repro.telemetry import load_metrics

    metrics = load_metrics(args.snapshot)
    width = max((len(name) for name in metrics), default=0)
    for name in sorted(metrics):
        print(f"{name:<{width}}  {metrics[name]:g}")
    print(f"({len(metrics)} metrics)")
    return 0


def _telemetry_diff(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.telemetry import DEFAULT_RTOL, diff_metrics, load_metrics

    tolerances = {}
    for spec in args.tolerance:
        pattern, sep, rtol = spec.rpartition("=")
        if not sep or not pattern:
            raise ConfigurationError(
                f"--tolerance wants PATTERN=RTOL, got {spec!r}"
            )
        try:
            tolerances[pattern] = float(rtol)
        except ValueError:
            raise ConfigurationError(
                f"--tolerance {spec!r}: {rtol!r} is not a number"
            ) from None
    result = diff_metrics(
        load_metrics(args.baseline),
        load_metrics(args.current),
        default_rtol=DEFAULT_RTOL if args.rtol is None else args.rtol,
        tolerances=tolerances or None,
        ignore=args.ignore,
    )
    print(result.report())
    return 0 if result.passed else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    return {
        "run": _telemetry_run,
        "why": _telemetry_why,
        "summary": _telemetry_summary,
        "diff": _telemetry_diff,
    }[args.telemetry_command](args)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    write_report(args.output, include_slow=args.include_slow)
    print(f"wrote {args.output}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "experiment": _cmd_experiment,
    "datasets": _cmd_datasets,
    "machines": _cmd_machines,
    "plan": _cmd_plan,
    "parallel": _cmd_parallel,
    "report": _cmd_report,
    "serve-bench": _cmd_serve_bench,
    "dynamic": _cmd_dynamic,
    "telemetry": _cmd_telemetry,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DeviceOutOfMemoryError as err:
        print(f"out of device memory: {err}", file=sys.stderr)
        return 2
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
