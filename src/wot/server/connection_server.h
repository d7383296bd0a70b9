// ConnectionServer: a concurrent connection front for the trust service.
//
// One epoll event loop multiplexes any number of simultaneously connected
// clients over a single shared api::Frontend (a ServiceFrontend or
// a ShardRouter — the server is implementation-agnostic), and a fixed
// dispatch pool (--threads) executes requests in parallel — queries run
// lock-free against the published TrustSnapshot (snapshot-resident name
// index included), so reader throughput scales with the pool while
// ingest/commit requests serialize inside TrustService's writer lock.
//
// Guarantees (see docs/wire_protocol.md, "Connection lifecycle"):
//   * Per-connection FIFO: responses are written in the order the
//     requests arrived on that connection, even though the pool may
//     finish them out of order (the loop holds completed frames until
//     every earlier frame of the same connection is ready).
//   * No cross-connection ordering: requests from different connections
//     interleave arbitrarily through the pool.
//   * Backpressure: each connection's pending output is bounded (4 MiB);
//     a client that stops reading while responses accumulate is
//     disconnected rather than allowed to grow the buffer. Reading from
//     a connection pauses while its output backlog passes half that cap
//     or 1024 requests are in flight on it, so one pipelining firehose
//     cannot monopolize the dispatch pool.
//   * Framing bound: a single request line longer than 1 MiB (or a
//     binary frame whose payload exceeds it) is answered with a framed
//     INVALID_ARGUMENT and the connection closed.
//   * Graceful shutdown: RequestStop() (async-signal-safe; wired to
//     SIGINT/SIGTERM by wot_served) stops accepting, answers every
//     request already read, flushes write buffers, then Serve() returns.
//     Connections still open after a 5 s drain are force-closed.
//
// Wire protocols: each connection starts in options.initial_protocol
// (NDJSON by default) and carries its own codec state. An NDJSON
// connection switches to the v2 binary framing either through the
// {"v":1,"method":"upgrade","protocol":2} handshake (acknowledged with a
// bare OK in FIFO position; every frame after the handshake line is
// binary) or by starting its very first byte with the binary frame magic
// — see docs/wire_protocol.md, "v2 binary framing".
//
// The server owns no service state: construct it over any frontend, call
// Serve(listen_fd) — or ServeConnection(read_fd, write_fd) for an
// already-connected byte stream such as stdin/stdout — on the serving
// thread (it blocks), RequestStop() from anywhere. One Serve*() call per
// server instance.
#ifndef WOT_SERVER_CONNECTION_SERVER_H_
#define WOT_SERVER_CONNECTION_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wot/api/binary_codec.h"
#include "wot/api/frontend.h"
#include "wot/telemetry/metric_registry.h"
#include "wot/util/macros.h"
#include "wot/util/result.h"
#include "wot/util/thread_annotations.h"

namespace wot {
namespace server {

struct ConnectionServerOptions {
  /// Dispatch pool size (values < 1 are clamped to 1). Query-heavy
  /// workloads scale with this; ingest serializes in the service anyway.
  int num_threads = 4;
  /// The framing every connection starts in. With kNdjson, binary-first
  /// clients are still sniffed by their magic first byte; with kBinary,
  /// connections speak v2 frames from the first byte (no NDJSON, no
  /// handshake).
  api::WireProtocol initial_protocol = api::WireProtocol::kNdjson;
};

/// \brief Aggregate serving counters (readable from any thread).
struct ConnectionServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_active = 0;
  int64_t connections_closed_slow = 0;       ///< backpressure disconnects
  int64_t connections_closed_oversized = 0;  ///< framing-bound disconnects
  int64_t requests_dispatched = 0;
};

class ConnectionServer {
 public:
  /// \p frontend must outlive the server and be shared-dispatch safe
  /// (every api::Frontend is).
  explicit ConnectionServer(api::Frontend* frontend,
                            const ConnectionServerOptions& options = {});
  ~ConnectionServer();
  WOT_DISALLOW_COPY_AND_MOVE(ConnectionServer);

  /// \brief Serves until RequestStop(). Takes ownership of \p listen_fd
  /// (a bound+listening socket, e.g. from api::ListenUnixSocket). Blocks
  /// the calling thread; returns OK after a clean drain, or the first
  /// fatal event-loop error.
  Status Serve(int listen_fd);

  /// \brief Serves one already-connected byte stream — e.g. stdin/stdout
  /// — through the same event loop, dispatch pool and drain semantics as
  /// Serve(). Takes ownership of both fds (they may be equal; regular
  /// files work — an unpollable fd is treated as always ready, which is
  /// sound because regular files never block). Blocks until the stream
  /// hits EOF and every response flushed, or RequestStop().
  Status ServeConnection(int read_fd, int write_fd);

  /// \brief Initiates graceful shutdown. Thread-safe and
  /// async-signal-safe (an atomic store plus an eventfd write), so it
  /// may be called directly from a SIGINT/SIGTERM handler.
  void RequestStop();

  ConnectionServerStats stats() const;

  /// \brief The registry this server records its transport metrics into
  /// (server.connections_*, server.requests_dispatched,
  /// server.epoll_wakeups, server.backpressure_pauses,
  /// server.queue_wait_ns, server.write_buffer_bytes — see
  /// docs/observability.md). stats() reads the same instruments, so the
  /// two views can never disagree. Register it on the serving frontend
  /// with AddMetricsSource to surface it in `metrics` responses.
  const std::shared_ptr<telemetry::MetricRegistry>& metrics_registry()
      const {
    return metrics_;
  }

 private:
  struct Connection;
  struct Completion {
    uint64_t connection_id = 0;
    uint64_t seq = 0;
    std::string frame;  // encoded response (newline-terminated NDJSON,
                        // or one self-delimiting binary frame)
  };
  class Loop;  // owns the per-Serve epoll state

  void Wake();

  api::Frontend* frontend_;
  ConnectionServerOptions options_;

  std::atomic<bool> stop_requested_{false};
  int wake_fd_ = -1;  // eventfd: completions ready and/or stop requested

  // The pool-to-loop handoff: workers append under completions_mu_, the
  // event loop swaps the batch out under the same lock.
  Mutex completions_mu_;
  std::vector<Completion> completions_ WOT_GUARDED_BY(completions_mu_);

  // Transport instruments (resolved once at construction; the registry
  // outlives them). stats() and ConnectionContext snapshots read these
  // same counters, so `stats` responses and `metrics` scrapes agree by
  // construction.
  std::shared_ptr<telemetry::MetricRegistry> metrics_;
  telemetry::Counter* accepted_;
  telemetry::Gauge* active_;
  telemetry::Counter* closed_slow_;
  telemetry::Counter* closed_oversized_;
  telemetry::Counter* dispatched_;
  telemetry::Counter* epoll_wakeups_;
  telemetry::Counter* backpressure_pauses_;
  telemetry::Gauge* write_buffer_bytes_;
  telemetry::LatencyHistogram* queue_wait_ns_;

  friend class Loop;
};

}  // namespace server
}  // namespace wot

#endif  // WOT_SERVER_CONNECTION_SERVER_H_
