"""Command-line entry point: generate, train, evaluate, select, noise, ablate.

Commands communicate only through files (scenario store, adjacency cache,
checkpoints, reports), so any command can be re-run from the artifacts of
the previous ones. Every report embeds the configuration hash, master seed,
and tool version. Exit codes: 0 success, 2 configuration error, 3 data
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .adjacency import build_adjacency
from .config import RunConfig, load_config
from .datagen import (
    ScenarioSpec,
    scenario_seed,
    subsample_scenarios,
    synthesize_scenario,
    ternary_grid,
    window_dataset,
)
from .errors import ConfigError, DataError, NumericalFailureError
from .evaluation import (
    ablation_run,
    evaluate_model,
    evaluate_scores,
    make_noise_augmented,
    noise_sweep,
    predict_proba,
)
from .selection import (
    aggregate_edges,
    build_report,
    overlap,
    top_k,
    write_edge_list,
    write_strength_report,
)
from .store import (
    ScenarioTensorCache,
    class_balance,
    load_checkpoint,
    load_scenario,
    manifest_entry,
    read_manifest,
    read_scenario_header,
    scenario_filename,
    save_checkpoint,
    save_scenario,
    write_json_report,
    write_manifest,
    write_table,
)
from .training import VARIANTS, split_dataset, split_ids, train

METRIC_COLUMNS = ("accuracy", "precision", "recall", "f1", "specificity", "auroc")


def _meta(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.config_hash(), "seed": cfg.seed, "version": __version__}


def _ensure_dirs(*paths) -> None:
    for p in paths:
        os.makedirs(p, exist_ok=True)


def _slice_record(record, channels):
    idx = [record.channel_names.index(nm) for nm in channels]
    return dataclasses.replace(
        record,
        trajectory=np.ascontiguousarray(record.trajectory[:, idx]),
        channel_names=tuple(record.channel_names[i] for i in idx),
        channel_offsets=record.channel_offsets[idx],
    )


def _iter_records(cfg: RunConfig, channels=None, entries=None):
    """Stored scenarios in manifest order; with ``entries``, only those
    manifest entries."""
    store = cfg.paths.scenario_store
    if entries is None:
        entries = read_manifest(store)["scenarios"]
    for entry in entries:
        record = load_scenario(os.path.join(store, entry["file"]))
        if channels:
            record = _slice_record(record, channels)
        yield record


def _cached_source(cache: ScenarioTensorCache, seq):
    """A tensor source over ``cache`` that centers and decomposes a raw
    window only on a miss."""
    return cache.source(lambda w: build_adjacency(seq.adjacency_input(w), seq.dmd))


def _window_cached(cfg: RunConfig, record, proto, token: str):
    """Window one scenario, reading and filling its adjacency cache file.

    Returns the windowed scenario and the cache, whose hit and miss counts
    cover this call.
    """
    cache = ScenarioTensorCache(cfg.paths.adjacency_cache, record.scenario_id, token)
    windowed = window_dataset(record, proto,
                              tensor_source=_cached_source(cache, proto.sequence))
    cache.flush()
    return windowed, cache


def _build_dataset(cfg: RunConfig, width_ms=None, channels=None):
    """Window every stored scenario into sequence samples, using the tensor cache.

    Returns (training samples, stats dict).
    """
    proto = cfg.window_protocol(width_ms)
    token = proto.sequence.cache_token()
    if channels:
        token += "-ch:" + ",".join(channels)
    training = []
    stats = {"scenarios": 0, "diverged": 0, "cache_hits": 0, "cache_misses": 0}
    _ensure_dirs(cfg.paths.adjacency_cache)
    for record in _iter_records(cfg, channels):
        windowed, cache = _window_cached(cfg, record, proto, token)
        stats["cache_hits"] += cache.hits
        stats["cache_misses"] += cache.misses
        if windowed.skipped_diverged:
            stats["diverged"] += 1
            continue
        stats["scenarios"] += 1
        training.extend(windowed.training)
    if not training:
        raise DataError("scenario store produced no training samples")
    return training, stats


def _checkpoint_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.paths.checkpoints, "model.ckpt")


def _test_entries(cfg: RunConfig):
    """Manifest entries of the test split, from the manifest alone.

    Every scenario that is not diverged yields training samples, so the ids
    `split_ids` sees here are those `split_dataset` sees in `train`.
    """
    entries = read_manifest(cfg.paths.scenario_store)["scenarios"]
    _, _, test_ids = split_ids([e["id"] for e in entries if not e["diverged"]],
                               cfg.train_config())
    return [e for e in entries if e["id"] in test_ids]


def _load_model(cfg: RunConfig):
    """The checkpoint's parameters and standardizer, and the manifest entries
    of this run's test split.

    The checkpoint must name this run's seed and test split; otherwise
    training scenarios would be scored as test.
    """
    path = _checkpoint_path(cfg)
    if not os.path.exists(path):
        raise DataError(f"missing checkpoint {path}; run the train command first")
    params, std, header = load_checkpoint(path)
    if header.get("seed") != cfg.seed:
        raise DataError(f"checkpoint {path} was trained with seed {header.get('seed')}, "
                        f"but this run uses seed {cfg.seed}")
    test_entries = _test_entries(cfg)
    if header.get("test_ids") != sorted(e["id"] for e in test_entries):
        raise DataError(f"checkpoint {path} was trained with another test split; "
                        f"retrain with the train command")
    return params, std, test_entries


def _metric_row(label, report):
    return (
        label, report.accuracy, report.precision, report.recall, report.f1,
        report.specificity,
        report.auroc if report.auroc is not None else float("nan"),
    )


def cmd_generate(cfg: RunConfig, args) -> int:
    store = cfg.paths.scenario_store
    _ensure_dirs(store)
    mixes = ternary_grid(cfg.data.total, cfg.data.min_share, cfg.data.ternary_step)
    specs = [ScenarioSpec(mix, event) for event in cfg.data.events for mix in mixes]
    specs = subsample_scenarios(
        specs, cfg.data.keep_1_in, seed=cfg.seed,
        subsample_unperturbed=cfg.data.subsample_unperturbed,
    )
    surrogate_cfg = cfg.surrogate_config()

    def synth(spec: ScenarioSpec):
        path = os.path.join(store, scenario_filename(spec.scenario_id))
        if args.skip_existing and os.path.exists(path):
            try:
                entry = read_scenario_header(path)
                if entry["id"] == spec.scenario_id:
                    return entry
            except DataError:
                pass  # fall through to regeneration
        record = synthesize_scenario(
            spec.mix, spec.event, scenario_seed(cfg.seed, spec), surrogate_cfg
        )
        save_scenario(record, store)
        return manifest_entry(record)

    workers = 1 if args.deterministic else max(1, args.workers)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(synth, specs))
    else:
        entries = [synth(spec) for spec in specs]

    write_manifest(store, entries, meta=_meta(cfg))
    balance = class_balance(entries)
    print(f"generated {len(entries)} scenarios into {store}")
    print("event\tstable\tunstable\tdiverged")
    for event in sorted(balance):
        row = balance[event]
        print(f"{event}\t{row['stable']}\t{row['unstable']}\t{row['diverged']}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    samples, stats = _build_dataset(cfg)
    print(f"windowed {stats['scenarios']} scenarios -> {len(samples)} samples "
          f"(diverged skipped: {stats['diverged']}, cache hits: {stats['cache_hits']})")
    result = train(samples, cfg.train_config(),
                   embed_dim=cfg.model.embed_dim, hidden_dim=cfg.model.hidden_dim)
    _ensure_dirs(cfg.paths.checkpoints)
    save_checkpoint(result.params, result.standardizer, _checkpoint_path(cfg),
                    seed=cfg.seed,
                    test_ids={s.scenario_id for s in result.test_samples},
                    meta=_meta(cfg))
    # --deterministic zeroes the wall-clock column so reruns are byte-identical
    history = [
        (st.epoch, st.train_loss, st.val_loss,
         f"{0.0 if args.deterministic else st.wall_ms:.3f}")
        for st in result.history
    ]
    write_table(os.path.join(cfg.paths.checkpoints, "history.tsv"),
                ("epoch", "train_loss", "val_loss", "wall_ms"), history, meta=_meta(cfg))
    best = min(h.val_loss for h in result.history)
    print(f"trained {len(result.history)} epochs, best validation loss {best:.6f}")
    print(f"checkpoint: {_checkpoint_path(cfg)}")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    params, std, test_entries = _load_model(cfg)
    _ensure_dirs(cfg.paths.reports)
    proto = cfg.window_protocol()
    token = proto.sequence.cache_token()
    # one pass over the test scenarios: their training windows hit the cache
    # `train` filled, their generalization tensors are built here, and the
    # cache is not written back
    test_samples, gen_probs, gen_labels = [], [], []
    for record in _iter_records(cfg, entries=test_entries):
        cache = ScenarioTensorCache(cfg.paths.adjacency_cache, record.scenario_id, token)
        windowed = window_dataset(record, proto, include_generalization=True,
                                  tensor_source=_cached_source(cache, proto.sequence))
        test_samples.extend(windowed.training)
        if windowed.generalization:
            probs = predict_proba(params, windowed.generalization, std)
            gen_probs.extend(probs.tolist())
            gen_labels.extend(s.label for s in windowed.generalization)
    if not test_samples:
        raise DataError("the test scenarios produced no samples")
    report = evaluate_model(params, test_samples, std,
                            threshold=cfg.evaluate.threshold)
    rows = [_metric_row("test", report)]
    payload = {"test": report.to_dict(), "meta": _meta(cfg)}
    if gen_probs:
        gen_report = evaluate_scores(np.array(gen_probs), np.array(gen_labels),
                                     cfg.evaluate.threshold)
        rows.append(_metric_row("generalization", gen_report))
        payload["generalization"] = gen_report.to_dict()

    if args.window_sweep:
        sweep_rows = []
        for width in cfg.evaluate.window_sweep or (100, 200, 500, 1000, 2000):
            sw_samples, _ = _build_dataset(cfg, width_ms=width)
            sw_result = train(sw_samples, cfg.train_config(),
                              embed_dim=cfg.model.embed_dim,
                              hidden_dim=cfg.model.hidden_dim)
            sw_report = evaluate_model(sw_result.params, sw_result.test_samples,
                                       sw_result.standardizer,
                                       threshold=cfg.evaluate.threshold)
            sweep_rows.append((width, sw_report))
        best_f1 = max(r.f1 for _, r in sweep_rows)
        table = []
        for width, r in sweep_rows:
            marker = "best_f1" if r.f1 == best_f1 else ""
            table.append((width,) + _metric_row("", r)[1:] + (marker,))
        write_table(os.path.join(cfg.paths.reports, "window_sweep.tsv"),
                    ("width_ms",) + METRIC_COLUMNS + ("flag",), table, meta=_meta(cfg))
        payload["window_sweep"] = {str(w): r.to_dict() for w, r in sweep_rows}

    if args.node_subsets:
        subset_rows = _node_subset_rows(cfg, args)
        write_table(os.path.join(cfg.paths.reports, "node_subsets.tsv"),
                    ("nodes",) + METRIC_COLUMNS, subset_rows, meta=_meta(cfg))

    write_table(os.path.join(cfg.paths.reports, "metrics.tsv"),
                ("split",) + METRIC_COLUMNS, rows, meta=_meta(cfg))
    write_json_report(os.path.join(cfg.paths.reports, "metrics.json"), payload)
    for row in rows:
        print("\t".join(str(v) for v in row))
    return 0


def _selection_range(cfg: RunConfig):
    t_from = cfg.data.event_ms - cfg.window.width_ms
    t_to = cfg.data.event_ms + (cfg.window.sample_count - 1) * cfg.window.sample_stride_ms
    return t_from, t_to


def _collect_tensors(cfg: RunConfig, events=None):
    """Adjacency tensors of every training window, grouped per event type."""
    proto = cfg.window_protocol()
    token = proto.sequence.cache_token()
    by_event = {}
    names = None
    for record in _iter_records(cfg):
        if record.diverged:
            continue
        if events is not None and record.event not in events:
            continue
        windowed, _ = _window_cached(cfg, record, proto, token)
        names = record.channel_names
        bucket = by_event.setdefault(record.event, [])
        for sample in windowed.training:
            bucket.extend(sample.tensors)
    return by_event, names


def _node_subset_rows(cfg: RunConfig, args):
    by_event, names = _collect_tensors(cfg)
    t_from, t_to = _selection_range(cfg)
    all_tensors = [t for bucket in by_event.values() for t in bucket]
    report = build_report(all_tensors, t_from, t_to, channel_names=names)
    rows = []
    for k in cfg.evaluate.node_subsets or (len(names),):
        k = int(k)
        chans = top_k(report, k)
        sub_samples, _ = _build_dataset(cfg, channels=chans)
        result = train(sub_samples, cfg.train_config(),
                       embed_dim=cfg.model.embed_dim, hidden_dim=cfg.model.hidden_dim)
        sub_report = evaluate_model(result.params, result.test_samples,
                                    result.standardizer,
                                    threshold=cfg.evaluate.threshold)
        rows.append((k,) + _metric_row("", sub_report)[1:])
    return rows


def cmd_select(cfg: RunConfig, args) -> int:
    _ensure_dirs(cfg.paths.reports)
    by_event, names = _collect_tensors(cfg)
    if not by_event:
        raise DataError("no scenarios available for node-strength analysis")
    t_from, t_to = _selection_range(cfg)
    all_tensors = [t for bucket in by_event.values() for t in bucket]
    combined = build_report(all_tensors, t_from, t_to, channel_names=names)
    write_strength_report(combined,
                          os.path.join(cfg.paths.reports, "node_strength.tsv"),
                          meta=_meta(cfg))
    edges = aggregate_edges(all_tensors, t_from, t_to)
    write_edge_list(edges, os.path.join(cfg.paths.reports, "edges.tsv"),
                    channel_names=names, top_fraction=args.edge_fraction,
                    meta=_meta(cfg))

    payload = {"meta": _meta(cfg), "combined_ranking": top_k(combined, len(names))}
    event_reports = {
        event: build_report(bucket, t_from, t_to, channel_names=names)
        for event, bucket in by_event.items()
    }
    if len(event_reports) >= 2:
        kinds = sorted(event_reports)
        k = min(20, len(names))
        count, jaccard = overlap(top_k(event_reports[kinds[0]], k),
                                 top_k(event_reports[kinds[1]], k))
        payload["event_overlap"] = {
            "events": kinds, "k": k, "count": count, "jaccard": jaccard,
        }
        print(f"top-{k} overlap between {kinds[0]} and {kinds[1]}: "
              f"{count} channels (jaccard {jaccard:.3f})")
    write_json_report(os.path.join(cfg.paths.reports, "node_strength.json"), payload)
    k = min(13, len(names)) if args.k is None else args.k
    print("top channels:", ", ".join(str(c) for c in top_k(combined, k)))
    return 0


def cmd_noise(cfg: RunConfig, args) -> int:
    params, std, _ = _load_model(cfg)
    _ensure_dirs(cfg.paths.reports)
    samples, _ = _build_dataset(cfg)
    train_cfg = cfg.train_config()
    train_s, val_s, test_s = split_dataset(samples, train_cfg)

    aug_params = aug_std = None
    if args.augmented:
        # corrupt only the training portion; scenario-level splitting puts
        # the noisy copies back into the training fold and keeps validation
        # and test clean
        seq_cfg = cfg.sequence_config()
        augmented = make_noise_augmented(train_s, cfg.evaluate.augment_snr,
                                         seq_cfg, seed=cfg.seed)
        aug_result = train(augmented + val_s + test_s, train_cfg,
                           embed_dim=cfg.model.embed_dim,
                           hidden_dim=cfg.model.hidden_dim)
        aug_params, aug_std = aug_result.params, aug_result.standardizer

    points = noise_sweep(params, test_s, std, cfg.sequence_config(),
                         cfg.evaluate.snr_list, seed=cfg.seed,
                         augmented_params=aug_params,
                         augmented_standardizer=aug_std,
                         threshold=cfg.evaluate.threshold)
    rows = []
    payload = {"meta": _meta(cfg), "points": []}
    for pt in points:
        row = (pt.snr_db,) + _metric_row("", pt.clean_model)[1:]
        if pt.augmented_model is not None:
            row += (pt.augmented_model.auroc,)
        rows.append(row)
        entry = {"snr_db": pt.snr_db, "clean": pt.clean_model.to_dict()}
        if pt.augmented_model is not None:
            entry["augmented"] = pt.augmented_model.to_dict()
        payload["points"].append(entry)
    columns = ("snr_db",) + METRIC_COLUMNS
    if args.augmented:
        columns += ("augmented_auroc",)
    write_table(os.path.join(cfg.paths.reports, "noise_sweep.tsv"), columns, rows,
                meta=_meta(cfg))
    write_json_report(os.path.join(cfg.paths.reports, "noise_sweep.json"), payload)
    for row in rows:
        print("\t".join(str(v) for v in row))
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
    _ensure_dirs(cfg.paths.reports)
    samples, _ = _build_dataset(cfg)
    variants = tuple(args.variants.split(",")) if args.variants else tuple(VARIANTS)
    entries = ablation_run(samples, variants, cfg.train_config(),
                           embed_dim=cfg.model.embed_dim,
                           hidden_dim=cfg.model.hidden_dim,
                           threshold=cfg.evaluate.threshold)
    rows = []
    payload = {"meta": _meta(cfg), "variants": {}}
    for e in entries:
        rows.append((e.variant,) + _metric_row("", e.metrics)[1:]
                    + ("non-convergent" if e.non_convergent else "", e.epochs_run))
        payload["variants"][e.variant] = {
            "metrics": e.metrics.to_dict(),
            "non_convergent": e.non_convergent,
            "epochs_run": e.epochs_run,
        }
    write_table(os.path.join(cfg.paths.reports, "ablation.tsv"),
                ("variant",) + METRIC_COLUMNS + ("flag", "epochs"), rows,
                meta=_meta(cfg))
    write_json_report(os.path.join(cfg.paths.reports, "ablation.json"), payload)
    for row in rows:
        print("\t".join(str(v) for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dramn",
        description="Stability forecasting pipeline: synthetic data, dynamic "
                    "adjacency construction, training, and evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="path to a JSON config, or 'demo' for the bundled demo")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--deterministic", action="store_true",
                       help="sequential execution and reproducible artifacts")

    p = sub.add_parser("generate", help="synthesize the scenario store")
    common(p)
    p.add_argument("--skip-existing", action="store_true", dest="skip_existing",
                   help="keep scenario files that already exist and read intact")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="window, cache adjacency, train, checkpoint")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="test metrics and generalization ranges")
    common(p)
    p.add_argument("--window-sweep", action="store_true", dest="window_sweep",
                   help="retrain across the configured window sizes")
    p.add_argument("--node-subsets", action="store_true", dest="node_subsets",
                   help="retrain on the configured top-k channel subsets")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("select", help="rank channels by cumulative node strength")
    common(p)
    p.add_argument("--k", type=int, default=None,
                   help="channels to print (default: 13, or every channel if fewer)")
    p.add_argument("--edge-fraction", type=float, default=0.5, dest="edge_fraction")
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("noise", help="AUROC sweep over injected noise levels")
    common(p)
    p.add_argument("--augmented", action="store_true",
                   help="also train and report a noise-augmented model")
    p.set_defaults(fn=cmd_noise)

    p = sub.add_parser("ablate", help="train and compare model variants")
    common(p)
    p.add_argument("--variants", default="",
                   help=f"comma-separated subset of {','.join(VARIANTS)}")
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
