#ifndef ST4ML_ST4ML_H_
#define ST4ML_ST4ML_H_

/// The ST4ML public API, one include. Applications (see examples/) should
/// include only this header; the per-layer headers below are the same API
/// split along the paper's architecture for targeted includes inside the
/// library, benches and tests.

// Substrates: error contract, logging, deterministic RNG, env knobs,
// bounded retry, and scripted/probabilistic fault injection for tests.
#include "common/env.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"

// Vectorized columnar kernels behind the runtime CPU backend registry.
#include "accel/hash_mix.h"
#include "accel/kernels.h"

// Geometry and time.
#include "geometry/geometry.h"
#include "geometry/linestring.h"
#include "geometry/mbr.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "temporal/duration.h"

// Spatio-temporal indexing, including the persistent mmap'd `.stix`
// sidecar index selection cold-starts from.
#include "index/rtree.h"
#include "index/stbox.h"
#include "index/stix.h"
#include "index/zcurve.h"

// Observability: typed engine counters, nested-span tracing, exporters.
#include "observability/counters.h"
#include "observability/trace_export.h"
#include "observability/tracer.h"

// The mini dataflow engine ST4ML rides on.
#include "engine/broadcast.h"
#include "engine/dataset.h"
#include "engine/dataset_cache.h"
#include "engine/execution_context.h"
#include "engine/pair_ops.h"

// The Session/Job layer every entry point (CLIs, the st4mld daemon) drives:
// one Job per Selection → Conversion → Extraction run, auto-attaching stage
// spans and per-stage record counters.
#include "pipeline/session.h"

// Storage: records, the STPQ on-disk format, text import/export.
#include "storage/atomic_publish.h"
#include "storage/csv.h"
#include "storage/json.h"
#include "storage/records.h"
#include "storage/stpq.h"
#include "storage/text_import.h"

// Streaming ingestion: crash-safe WAL staging + background compaction
// (DESIGN.md §13); Selector::Select(dir, meta) serves the merged
// staged+compacted view.
#include "ingest/ingestor.h"
#include "ingest/wal.h"

// ST instances (Table 1) and the collective structures they convert into.
#include "instances/instances.h"
#include "instances/structures.h"

// Stage 1 of the paper pipeline: partitioning + on-disk-index selection.
#include "partition/balance.h"
#include "partition/baseline_partitioners.h"
#include "partition/hash_partitioner.h"
#include "partition/partitioner.h"
#include "partition/quadtree_partitioner.h"
#include "partition/st_partition_ops.h"
#include "partition/str_partitioner.h"
#include "partition/tbalance_partitioner.h"
#include "selection/on_disk_index.h"
#include "selection/select_query.h"
#include "selection/selector.h"

// Stage 2: conversion between instances.
#include "conversion/parse.h"
#include "conversion/shuffle_conversion.h"
#include "conversion/singular_to_collective.h"
#include "mapmatching/hmm_map_matcher.h"
#include "mapmatching/road_network.h"

// Stage 3: feature extraction.
#include "extraction/collective_extractors.h"
#include "extraction/event_extractors.h"
#include "extraction/extractor.h"
#include "extraction/rdd_api.h"
#include "extraction/traj_extractors.h"

// Synthetic dataset generators and the baseline-system miniatures.
#include "baselines/geo_object.h"
#include "baselines/geomesa_like.h"
#include "baselines/geospark_like.h"
#include "datagen/generators.h"

#endif  // ST4ML_ST4ML_H_
