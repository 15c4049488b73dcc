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
from .adjacency import build_tensors
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
    read_scenario_line,
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


def _iter_records(cfg: RunConfig, entries, channels=None):
    """The stored scenarios of the manifest ``entries``, in their order.

    The generator drops each record before it loads the next, so a caller
    that drops it too holds one scenario at a time.
    """
    store = cfg.paths.scenario_store
    for entry in entries:
        record = load_scenario(os.path.join(store, entry["file"]))
        if channels:
            record = _slice_record(record, channels)
        yield record
        del record


def _cached_source(cache: ScenarioTensorCache, seq):
    """A tensor source over ``cache`` that centers and decomposes raw
    windows only on a miss, all of a call's misses in one stacked build."""
    return cache.source(lambda windows: build_tensors(windows, seq.dmd))


def _split(entries, cfg: RunConfig):
    """Train, validation and test ids of the manifest ``entries``.

    Every scenario that is not diverged yields training samples, so these
    are the ids `split_dataset` sees in `train`.
    """
    return split_ids([e["id"] for e in entries if not e["diverged"]],
                     cfg.train_config())


def _build_dataset(cfg: RunConfig, width_ms=None, channels=None, entries=None,
                   raw_ids=frozenset()):
    """Window stored scenarios into sequence samples, using the tensor cache.

    ``entries`` picks manifest entries (default: all). A sample keeps its
    tensors and per-window channel sums, plus the sums of squares if it is
    in the training split, and drops its windows, so no record outlives its
    windowing. Samples of the scenarios in ``raw_ids`` keep their windows,
    over a private copy of their own rows.

    Returns (samples, stats dict).
    """
    proto = cfg.window_protocol(width_ms)
    token = proto.sequence.cache_token()
    if channels:
        token += "-ch:" + ",".join(channels)
    manifest = read_manifest(cfg.paths.scenario_store)["scenarios"]
    train_ids = _split(manifest, cfg)[0]
    training = []
    stats = {"scenarios": 0, "diverged": 0, "cache_hits": 0, "cache_misses": 0}
    _ensure_dirs(cfg.paths.adjacency_cache)
    for record in _iter_records(cfg, manifest if entries is None else entries, channels):
        sid = record.scenario_id
        cache = ScenarioTensorCache(cfg.paths.adjacency_cache, sid, token)
        windowed = window_dataset(record, proto, copy_rows=sid in raw_ids,
                                  tensor_source=_cached_source(cache, proto.sequence))
        del record  # released before the next scenario loads
        cache.flush()
        stats["cache_hits"] += cache.hits
        stats["cache_misses"] += cache.misses
        if windowed.skipped_diverged:
            stats["diverged"] += 1
            continue
        stats["scenarios"] += 1
        if sid not in raw_ids:
            for sample in windowed.training:
                sample.drop_windows(squares=sid in train_ids)
        training.extend(windowed.training)
    if not training:
        raise DataError("scenario store produced no training samples")
    return training, stats


def _checkpoint_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.paths.checkpoints, "model.ckpt")


def _test_entries(cfg: RunConfig):
    """Manifest entries of the test split, from the manifest alone."""
    entries = read_manifest(cfg.paths.scenario_store)["scenarios"]
    test_ids = _split(entries, cfg)[2]
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


def _train(cfg: RunConfig, samples):
    return train(samples, cfg.train_config(),
                 embed_dim=cfg.model.embed_dim, hidden_dim=cfg.model.hidden_dim)


def _fit_and_score(cfg: RunConfig, samples):
    """Train on ``samples`` and report the model's metrics on its test split."""
    result = _train(cfg, samples)
    return evaluate_model(result.params, result.test_samples, result.standardizer,
                          threshold=cfg.evaluate.threshold)


def _stored_entry(path, spec: ScenarioSpec, seed: int, surrogate_cfg):
    """The manifest entry of the scenario file at ``path`` if it reads intact
    and holds what this config synthesizes for ``spec`` (id, stream seed,
    timing and trajectory shape), else None."""
    try:
        record = load_scenario(path)
    except DataError:
        return None
    # the row count synthesize_scenario gives the trajectory
    n_samples = int(round(surrogate_cfg.duration_ms / surrogate_cfg.ms_per_sample)) + 1
    kept = ((record.scenario_id, record.seed, record.dt, record.event_ms,
             record.trajectory.shape)
            == (spec.scenario_id, seed, surrogate_cfg.dt, surrogate_cfg.event_ms,
                (n_samples, surrogate_cfg.n_channels)))
    return manifest_entry(record) if kept else None


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
        seed = scenario_seed(cfg.seed, spec)
        if args.skip_existing and os.path.exists(path):
            entry = _stored_entry(path, spec, seed, surrogate_cfg)
            if entry is not None:
                return entry
        record = synthesize_scenario(spec.mix, spec.event, seed, surrogate_cfg)
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
    result = _train(cfg, samples)
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
    hits = built = 0
    for record in _iter_records(cfg, test_entries):
        cache = ScenarioTensorCache(cfg.paths.adjacency_cache, record.scenario_id, token)
        windowed = window_dataset(record, proto, include_generalization=True,
                                  tensor_source=_cached_source(cache, proto.sequence))
        hits += cache.hits
        built += cache.misses
        for sample in windowed.training:
            sample.drop_windows()
        test_samples.extend(windowed.training)
        if windowed.generalization:
            probs = predict_proba(params, windowed.generalization, std)
            gen_probs.extend(probs.tolist())
            gen_labels.extend(s.label for s in windowed.generalization)
        # the generalization windows view the record: both are released
        # before the next scenario loads
        del record, windowed
    if not test_samples:
        raise DataError("the test scenarios produced no samples")
    print(f"windowed {len(test_entries)} test scenarios -> {len(test_samples)} samples, "
          f"{len(gen_probs)} generalization samples (cache hits: {hits}, "
          f"tensors built: {built})")
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
            sweep_rows.append((width, _fit_and_score(cfg, sw_samples)))
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


def _collect_tensors(cfg: RunConfig):
    """Adjacency tensors of every training window, grouped per event type,
    and the channel names.

    The window starts come from each scenario's header line; a scenario is
    loaded and windowed only when its cache file lacks one of them.
    """
    proto = cfg.window_protocol()
    seq = proto.sequence
    token = seq.cache_token()
    store = cfg.paths.scenario_store
    by_event = {}
    names = None
    _ensure_dirs(cfg.paths.adjacency_cache)
    for entry in read_manifest(store)["scenarios"]:
        if entry["diverged"]:
            continue
        path = os.path.join(store, entry["file"])
        header = read_scenario_line(path)
        cache = ScenarioTensorCache(cfg.paths.adjacency_cache, header.scenario_id, token)
        starts = [t for end in proto.train_end_times(header)
                  for t in seq.window_starts(end)]
        tensors = cache.lookup(starts, len(header.channel_names))
        if tensors is None:
            windowed = window_dataset(load_scenario(path), proto,
                                      tensor_source=_cached_source(cache, seq))
            tensors = [t for sample in windowed.training for t in sample.tensors]
        cache.flush()  # writes back any miss
        names = header.channel_names
        by_event.setdefault(header.event, []).extend(tensors)
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
        rows.append((k,) + _metric_row("", _fit_and_score(cfg, sub_samples))[1:])
    return rows


def cmd_select(cfg: RunConfig, args) -> int:
    _ensure_dirs(cfg.paths.reports)
    by_event, names = _collect_tensors(cfg)
    if not by_event:
        raise DataError("no scenarios available for node-strength analysis")
    t_from, t_to = _selection_range(cfg)
    all_tensors = [t for bucket in by_event.values() for t in bucket]
    combined = build_report(all_tensors, t_from, t_to, channel_names=names)
    # a bad --k (top_k) or --edge-fraction (write_edge_list) is refused
    # before the first report is written
    top = top_k(combined, min(13, len(names)) if args.k is None else args.k)
    edges = aggregate_edges(all_tensors, t_from, t_to)
    write_edge_list(edges, os.path.join(cfg.paths.reports, "edges.tsv"),
                    channel_names=names, top_fraction=args.edge_fraction,
                    meta=_meta(cfg))
    write_strength_report(combined,
                          os.path.join(cfg.paths.reports, "node_strength.tsv"),
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
    print("top channels:", ", ".join(str(c) for c in top))
    return 0


def cmd_noise(cfg: RunConfig, args) -> int:
    params, std, test_entries = _load_model(cfg)
    _ensure_dirs(cfg.paths.reports)
    # the sweep corrupts the raw rows of the test samples, the augmentation
    # those of the training samples; they keep private copies of them
    test_ids = {e["id"] for e in test_entries}
    aug_params = aug_std = None
    if not args.augmented:
        test_s, _ = _build_dataset(cfg, entries=test_entries, raw_ids=test_ids)
    else:
        train_ids = _split(read_manifest(cfg.paths.scenario_store)["scenarios"], cfg)[0]
        samples, _ = _build_dataset(cfg, raw_ids=train_ids | test_ids)
        train_s, val_s, test_s = split_dataset(samples, cfg.train_config())
        # corrupt only the training portion; scenario-level splitting puts
        # the noisy copies back into the training fold and keeps validation
        # and test clean
        seq_cfg = cfg.sequence_config()
        augmented = make_noise_augmented(train_s, cfg.evaluate.augment_snr,
                                         seq_cfg, seed=cfg.seed)
        aug_result = _train(cfg, augmented + val_s + test_s)
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
        p.add_argument("--workers", type=int, default=1,
                       help="number of scenarios generate synthesizes at once; "
                            "other commands ignore it")
        p.add_argument("--deterministic", action="store_true",
                       help="one scenario at a time in generate, and reproducible "
                            "artifacts")

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
