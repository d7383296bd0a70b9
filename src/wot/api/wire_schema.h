// The wire schema: one field description per api message (api.h), from
// which both codecs are driven — the NDJSON codec (codec.cc) and the v2
// binary codec (binary_codec.cc). Internal to the api layer.
//
// Each message type M has
//
//   template <class V> void Fields(V& v, M& m);
//
// listing its fields with their wire names in wire order (declaration
// order, shared by both framings). A visitor V is one of four — NDJSON
// writer/reader, binary writer/reader — and understands three calls:
//
//   v(name, field)                   a field every frame carries.
//   v.Optional(name, field, emit)    NDJSON: written only when `emit`
//                                    (default true); decoded as the
//                                    struct default when absent.
//                                    Binary: always carried.
//   v.Bytes(name, field)             arbitrary bytes in a std::string:
//                                    hex on NDJSON, raw on binary.
//
// Field types and their encodings (NDJSON / binary):
//   std::string      string / u32 length + bytes
//   int64_t          integer / i64
//   uint64_t         integer in [0, 2^63) / u64
//   uint32_t         integer in [0, 2^32) / u32
//   double           shortest round-trip number / IEEE-754 bits in a u64
//   bool             true|false / u8
//   std::vector<T>   array / u32 count, then the elements
//   a message type   object / its fields, concatenated
//
// Writers only read: they reach Fields through WriteFields, which drops
// the const. Readers receive default-constructed messages, so an omitted
// optional field keeps its default. Messages without fields (the
// parameterless methods and the empty response) need no overload.
#ifndef WOT_API_WIRE_SCHEMA_H_
#define WOT_API_WIRE_SCHEMA_H_

#include <array>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <variant>

#include "wot/api/api.h"

namespace wot {
namespace api {

/// Wire method names, indexed by RequestPayload alternative; the binary
/// frame's method code is the index.
inline constexpr const char* kMethodNames[] = {
    "trust",          "topk",          "explain",       "ingest_user",
    "ingest_category", "ingest_object", "ingest_review", "ingest_rating",
    "commit",         "stats",         "metrics",       "repl_fetch",
    "repl_status",    "repl_promote",
};
static_assert(std::size(kMethodNames) == std::variant_size_v<RequestPayload>,
              "method name table out of sync with RequestPayload");

/// Wire result_type names, indexed by ResponsePayload alternative (the
/// empty response has none); the binary frame's result type is the index.
inline constexpr const char* kResultTypeNames[] = {
    "",      "trust",   "topk",       "explain",     "ingest",
    "commit", "stats",  "metrics",    "repl_fetch",  "repl_status",
};
static_assert(std::size(kResultTypeNames) ==
                  std::variant_size_v<ResponsePayload>,
              "result type table out of sync with ResponsePayload");

// ---------------------------------------------------------------------------
// Requests.

template <class V, class M>
  requires std::is_empty_v<M>
void Fields(V&, M&) {}

template <class V>
void Fields(V& v, TrustQuery& m) {
  v("source", m.source);
  v("target", m.target);
}

template <class V>
void Fields(V& v, TopKQuery& m) {
  v("source", m.source);
  v.Optional("k", m.k);
}

template <class V>
void Fields(V& v, ExplainQuery& m) {
  v("source", m.source);
  v("target", m.target);
}

template <class V>
void Fields(V& v, IngestUser& m) {
  v("name", m.name);
}

template <class V>
void Fields(V& v, IngestCategory& m) {
  v("name", m.name);
}

template <class V>
void Fields(V& v, IngestObject& m) {
  v("category", m.category);
  v("name", m.name);
}

template <class V>
void Fields(V& v, IngestReview& m) {
  v("writer", m.writer);
  v("object", m.object);
}

template <class V>
void Fields(V& v, IngestRating& m) {
  v("rater", m.rater);
  v("review", m.review);
  v("value", m.value);
}

template <class V>
void Fields(V& v, ReplFetchRequest& m) {
  v.Optional("shard", m.shard);
  v.Optional("applied_version", m.applied_version);
  v.Optional("offset", m.offset);
}

// ---------------------------------------------------------------------------
// Responses.

template <class V>
void Fields(V& v, TrustResult& m) {
  v("trust", m.trust);
  v("source_name", m.source_name);
  v("target_name", m.target_name);
  v("snapshot_version", m.snapshot_version);
}

template <class V>
void Fields(V& v, ScoredUserEntry& m) {
  v("user", m.user);
  v("name", m.name);
  v("score", m.score);
}

template <class V>
void Fields(V& v, TopKResult& m) {
  v("source_name", m.source_name);
  v("trustees", m.trustees);
  v("snapshot_version", m.snapshot_version);
}

template <class V>
void Fields(V& v, ExplainTermResult& m) {
  v("category", m.category);
  v("category_name", m.category_name);
  v("affiliation", m.affiliation);
  v("expertise", m.expertise);
  v("contribution", m.contribution);
}

template <class V>
void Fields(V& v, ExplainResult& m) {
  v("trust", m.trust);
  v("affinity_sum", m.affinity_sum);
  v("source_name", m.source_name);
  v("target_name", m.target_name);
  v("terms", m.terms);
  v("snapshot_version", m.snapshot_version);
}

template <class V>
void Fields(V& v, IngestResult& m) {
  v("assigned_id", m.assigned_id);
}

template <class V>
void Fields(V& v, CommitResult& m) {
  v("snapshot_version", m.snapshot_version);
  v("published", m.published);
  v("categories_recomputed", m.categories_recomputed);
  v("affiliation_rows_recomputed", m.affiliation_rows_recomputed);
  v("postings_rebuilt", m.postings_rebuilt);
}

template <class V>
void Fields(V& v, StatsResult& m) {
  v("snapshot_version", m.snapshot_version);
  v("users", m.users);
  v("categories", m.categories);
  v("reviews", m.reviews);
  v("ratings", m.ratings);
  v("service_boots", m.service_boots);
  v("requests_served", m.requests_served);
  // Post-v1.0 additive fields: an older server omits them (decoded as 0).
  v.Optional("connections_active", m.connections_active);
  v.Optional("connections_accepted", m.connections_accepted);
  v.Optional("connection_requests_served", m.connection_requests_served);
  // The sharding group is written only when a multi-shard router
  // answered, and the durability group only when a durable store is
  // attached, so other responses stay byte-identical to the servers that
  // predate them.
  const bool sharded = m.shards > 0;
  v.Optional("shards", m.shards, sharded);
  v.Optional("shard_service_boots", m.shard_service_boots, sharded);
  v.Optional("shard_requests_served", m.shard_requests_served, sharded);
  const bool durable = m.segment_epoch > 0;
  v.Optional("wal_records", m.wal_records, durable);
  v.Optional("wal_bytes", m.wal_bytes, durable);
  v.Optional("segment_epoch", m.segment_epoch, durable);
  v.Optional("segment_bytes", m.segment_bytes, durable);
  v.Optional("recovered_replayed_records", m.recovered_replayed_records,
             durable);
}

template <class V>
void Fields(V& v, MetricValue& m) {
  v("name", m.name);
  v("value", m.value);
}

template <class V>
void Fields(V& v, MetricHistogramValue& m) {
  v("name", m.name);
  v("count", m.count);
  v("sum", m.sum);
  v("min", m.min);
  v("max", m.max);
  v("p50", m.p50);
  v("p90", m.p90);
  v("p99", m.p99);
  v("p999", m.p999);
}

template <class V>
void Fields(V& v, MetricsResult& m) {
  v("snapshot_version", m.snapshot_version);
  v("counters", m.counters);
  v("gauges", m.gauges);
  v("histograms", m.histograms);
}

template <class V>
void Fields(V& v, ReplFetchResult& m) {
  v("kind", m.kind);
  v("base_version", m.base_version);
  v("target_version", m.target_version);
  v("source_version", m.source_version);
  v("offset", m.offset);
  v("total_bytes", m.total_bytes);
  v.Bytes("payload", m.payload);
}

template <class V>
void Fields(V& v, ReplReplicaInfo& m) {
  v("shard", m.shard);
  v("address", m.address);
  v("applied_version", m.applied_version);
  v("healthy", m.healthy);
}

template <class V>
void Fields(V& v, ReplStatusResult& m) {
  v("role", m.role);
  v("applied_version", m.applied_version);
  v("source_version", m.source_version);
  v("failovers", m.failovers);
  v("replicas", m.replicas);
}

// ---------------------------------------------------------------------------
// Driving a visitor.

/// \brief Describes \p message to the writer \p v.
template <class V, class M>
void WriteFields(V& v, const M& message) {
  Fields(v, const_cast<M&>(message));
}

/// \brief Describes the active alternative of \p payload to the writer
/// \p v.
template <class V, class Variant>
void WritePayload(V& v, const Variant& payload) {
  std::visit([&v](const auto& message) { WriteFields(v, message); },
             payload);
}

/// \brief Makes alternative \p index the value of \p payload and
/// describes it to the reader \p v: the decode twin of WritePayload,
/// dispatched through a table built at compile time. \p index must be
/// below std::variant_size_v<Variant>.
template <class V, class Variant>
void ReadPayload(V& v, size_t index, Variant* payload) {
  using Reader = void (*)(V&, Variant*);
  static constexpr auto kReaders = []<size_t... I>(std::index_sequence<I...>) {
    return std::array<Reader, sizeof...(I)>{
        [](V& visitor, Variant* p) {
          Fields(visitor, p->template emplace<I>());
        }...};
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
  kReaders[index](v, payload);
}

}  // namespace api
}  // namespace wot

#endif  // WOT_API_WIRE_SCHEMA_H_
