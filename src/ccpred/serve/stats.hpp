#pragma once

/// \file stats.hpp
/// The serving subsystem's observable state and its schema. Every stats
/// field is declared once, in a field list below, as X(type, name, merge
/// rule, weight). The lists generate the snapshot structs and
/// for_each_value, the one walk that the JSON writer (protocol.cpp), the
/// binary codec (wire.cpp) and merge_stats share. A field's name is its
/// JSON key after its group's prefix; its type fixes its wire type.
///
/// Groups, in encoding order: the top level; one group per verb in Op
/// order (`lat_<verb>_<name>`; JSON shows served verbs only, the wire all
/// of them); the online gate (wire only); the online group
/// (`online_<name>`), present only when the gate is set.
///
/// Merge rules (merge_stats, shared by both fleets): counters and gauges
/// sum; worst observations take the max; the gate ORs; quantiles and means
/// become means weighted by the field's Weight; cache_hit_rate is
/// recomputed from the merged counters. So fleet p50/p95/p99 are
/// request-weighted means of shard quantiles, not quantiles of the union
/// of the shards' samples.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccpred::serve {

/// Number of protocol verbs (must match the Op enum in protocol.hpp, which
/// indexes the per-verb latency array below).
inline constexpr std::size_t kNumOps = 6;

/// How merge_stats folds a field across shard snapshots (see file comment).
enum class Merge { kSum, kMax, kOr, kMean, kRecompute };

/// The weight of a Merge::kMean field: the shard's requests, the verb's
/// own count, or the shard's batch dispatches (flushes + bypasses).
enum class Weight { kNone, kRequests, kVerbCount, kDispatches };

// clang-format off

/// Latency quantiles of one protocol verb.
#define CCPRED_VERB_LATENCY_FIELDS(X)                                      \
  X(std::uint64_t, count, kSum, kNone)  /* requests of this verb */        \
  X(double, p50_ms, kMean, kVerbCount)                                     \
  X(double, p95_ms, kMean, kVerbCount)                                     \
  X(double, p99_ms, kMean, kVerbCount)                                     \
  X(double, max_ms, kMax, kNone)  /* exact worst, not bucket-quantized */

/// Observable state of the online learning loop (zero when disabled).
#define CCPRED_ONLINE_STATS_FIELDS(X)                                      \
  X(std::uint64_t, reports, kSum, kNone)       /* report requests */       \
  X(std::uint64_t, measurements, kSum, kNone)  /* wall times received */   \
  X(std::uint64_t, duplicates, kSum, kNone)    /* byte-exact repeats */    \
  X(std::uint64_t, rejected, kSum, kNone)      /* invalid wall times */    \
  X(std::uint64_t, buffered, kSum, kNone)      /* rows, all streams */     \
  X(double, rolling_mape, kMax, kNone)         /* worst stream's MAPE */   \
  X(std::uint64_t, drift_events, kSum, kNone)                              \
  X(std::uint64_t, incremental_updates, kSum, kNone)  /* GP updates */     \
  X(std::uint64_t, refits, kSum, kNone)        /* candidates trained */    \
  X(std::uint64_t, shadow_evals, kSum, kNone)                              \
  X(std::uint64_t, promotions, kSum, kNone)                                \
  X(std::uint64_t, promotions_rejected, kSum, kNone)  /* lost shadow */    \
  X(std::uint64_t, cache_invalidated, kSum, kNone)  /* sweeps dropped */

/// Top-level fields of a Server snapshot. The batch_* fields stay zero
/// without micro-batching; overflow_closed is fed by the daemon through
/// Server::set_overflow_source.
#define CCPRED_SERVER_STATS_FIELDS(X)                                      \
  X(std::uint64_t, requests, kSum, kNone)        /* incl. errors */        \
  X(std::uint64_t, errors, kSum, kNone)          /* answered ok=false */   \
  X(std::uint64_t, sweeps_computed, kSum, kNone)                           \
  X(std::uint64_t, coalesced, kSum, kNone)       /* joined a sweep */      \
  X(std::uint64_t, cache_hits, kSum, kNone)                                \
  X(std::uint64_t, cache_misses, kSum, kNone)                              \
  X(std::uint64_t, cache_evictions, kSum, kNone)                           \
  X(double, cache_hit_rate, kRecompute, kNone)   /* 0 if unused */         \
  X(std::uint64_t, cache_size, kSum, kNone)      /* cached sweeps now */   \
  X(std::uint64_t, queue_depth, kSum, kNone)     /* submitted, pending */  \
  X(std::uint64_t, deadline_exceeded, kSum, kNone)  /* code="deadline" */  \
  X(std::uint64_t, shed, kSum, kNone)            /* code="overloaded" */   \
  X(std::uint64_t, stale_served, kSum, kNone)    /* ok, stale model */     \
  X(std::uint64_t, reload_failures, kSum, kNone) /* failed loads */        \
  X(std::uint64_t, retries, kSum, kNone)         /* 0: client-side now */  \
  X(std::uint64_t, models_loaded, kSum, kNone)   /* artifact (re)loads */  \
  X(std::uint64_t, models_trained, kSum, kNone)  /* train-and-cache */     \
  X(double, latency_p50_ms, kMean, kRequests)                              \
  X(double, latency_p95_ms, kMean, kRequests)                              \
  X(double, latency_mean_ms, kMean, kRequests)                             \
  X(std::uint64_t, batched_requests, kSum, kNone)  /* in flushes >= 2 */   \
  X(std::uint64_t, batch_flushes, kSum, kNone)     /* flushes of 2+ */     \
  X(std::uint64_t, batch_bypass, kSum, kNone)      /* size-1 dispatches */ \
  X(double, batch_size_p50, kMean, kDispatches)    /* incl. bypass */      \
  X(double, batch_size_p95, kMean, kDispatches)                            \
  X(std::uint64_t, overflow_closed, kSum, kNone)   /* over a buffer cap */

// clang-format on

#define CCPRED_STATS_MEMBER(type, name, merge, weight) type name{};

struct VerbLatency {
  CCPRED_VERB_LATENCY_FIELDS(CCPRED_STATS_MEMBER)
};

struct OnlineStats {
  CCPRED_ONLINE_STATS_FIELDS(CCPRED_STATS_MEMBER)
};

/// Point-in-time snapshot of a running Server.
struct ServerStats {
  CCPRED_SERVER_STATS_FIELDS(CCPRED_STATS_MEMBER)
  VerbLatency verb_latency[kNumOps];  ///< per-verb groups, Op order
  bool online_enabled = false;        ///< online learning loop active
  OnlineStats online;
};

#undef CCPRED_STATS_MEMBER

/// A field's schema entry, as for_each_value hands it over.
struct StatsField {
  const char* key;  ///< the JSON key after the group prefix
  Merge merge;
  Weight weight;
};

/// Where a field sits in a snapshot (see the file comment).
enum class Group { kTop, kVerb, kGate, kOnline };

#define CCPRED_STATS_VISIT(type, name, merge, weight)   \
  visit(StatsField{#name, Merge::merge, Weight::weight}, \
        [](auto& group) -> auto& { return group.name; });

/// Walks snapshots `s, more...` field by field in encoding order, calling
/// f(group, verb, field, value in s, value in each of more...); `verb` is
/// the Op index within Group::kVerb. After the gate, the online group is
/// walked only if s has it set.
template <class F, class S, class... More>
void for_each_value(F&& f, S& s, More&... more) {
  {
    const auto visit = [&](const StatsField& field, auto get) {
      f(Group::kTop, 0, field, get(s), get(more)...);
    };
    CCPRED_SERVER_STATS_FIELDS(CCPRED_STATS_VISIT)
  }
  for (std::size_t v = 0; v < kNumOps; ++v) {
    const auto visit = [&](const StatsField& field, auto get) {
      f(Group::kVerb, v, field, get(s.verb_latency[v]),
        get(more.verb_latency[v])...);
    };
    CCPRED_VERB_LATENCY_FIELDS(CCPRED_STATS_VISIT)
  }
  f(Group::kGate, 0, StatsField{"online_enabled", Merge::kOr, Weight::kNone},
    s.online_enabled, more.online_enabled...);
  if (!s.online_enabled) return;
  const auto visit = [&](const StatsField& field, auto get) {
    f(Group::kOnline, 0, field, get(s.online), get(more.online)...);
  };
  CCPRED_ONLINE_STATS_FIELDS(CCPRED_STATS_VISIT)
}

#undef CCPRED_STATS_VISIT

/// JSON shows a verb's group only once the verb has been served.
inline bool served(const VerbLatency& verb) { return verb.count > 0; }

/// The value a Weight names in one snapshot; `verb` (an Op index) matters
/// only to Weight::kVerbCount.
inline std::uint64_t weight_of(Weight weight, const ServerStats& s,
                               std::size_t verb) {
  switch (weight) {
    case Weight::kRequests: return s.requests;
    case Weight::kVerbCount: return s.verb_latency[verb].count;
    case Weight::kDispatches: return s.batch_flushes + s.batch_bypass;
    case Weight::kNone: break;
  }
  return 0;
}

/// Sets the Merge::kRecompute fields from the counters they derive from.
inline void recompute_derived(ServerStats& s) {
  const std::uint64_t lookups = s.cache_hits + s.cache_misses;
  s.cache_hit_rate = lookups == 0 ? 0.0
                                  : static_cast<double>(s.cache_hits) /
                                        static_cast<double>(lookups);
}

/// Folds shard snapshots into one fleet snapshot by the merge rules. The
/// registry counters (reload_failures, models_loaded, models_trained) sum
/// like any counter — right for shards with their own registries; a fleet
/// whose shards share one registry overwrites them from it.
ServerStats merge_stats(const std::vector<ServerStats>& shards);

}  // namespace ccpred::serve
