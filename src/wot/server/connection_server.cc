#include "wot/server/connection_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "wot/api/binary_codec.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/api/unix_socket.h"
#include "wot/server/line_assembler.h"
#include "wot/telemetry/timed.h"
#include "wot/util/logging.h"
#include "wot/util/stopwatch.h"
#include "wot/util/thread_pool.h"

namespace wot {
namespace server {
namespace {

// epoll user-data tags for the two non-connection fds; connection ids
// start above them. Split-fd connections (ServeConnection with distinct
// read/write fds) register the write side under the connection id with
// the top bit set.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnectionId = 2;
constexpr uint64_t kWriteTagBit = 1ull << 63;

// Per-connection cap on buffered unsent response bytes; beyond it the
// client is deemed too slow and disconnected.
constexpr size_t kMaxPendingOutput = 4 * 1024 * 1024;
// Reading from a connection pauses while its unsent output exceeds half
// the disconnect cap (it resumes once the backlog drains).
constexpr size_t kReadPauseThreshold = kMaxPendingOutput / 2;
// At most this much is read off one connection per readiness event.
constexpr size_t kReadChunkBytes = 16384;
// Grace period for the shutdown drain before force-closing.
constexpr int64_t kDrainTimeoutMs = 5000;
// Per-request framing bound: one NDJSON line or one binary payload.
constexpr size_t kMaxLineBytes = 1024 * 1024;

// The bytes that carry \p frame on a \p wire connection: an NDJSON frame
// ends in a newline, a binary frame delimits itself.
std::string OnWire(api::WireProtocol wire, std::string frame) {
  if (wire == api::WireProtocol::kNdjson) frame += '\n';
  return frame;
}

}  // namespace

// Per-connection state, owned by the event-loop thread exclusively; a
// pool worker only ever sees a copy of the decoded request.
struct ConnectionServer::Connection {
  Connection(uint64_t id_in, int in_fd_in, int out_fd_in,
             const ConnectionServerOptions& options)
      : id(id_in),
        in_fd(in_fd_in),
        out_fd(out_fd_in),
        wire(options.initial_protocol),
        assembler(kMaxLineBytes),
        frames(kMaxLineBytes) {}

  uint64_t id;
  int in_fd;   // read side
  int out_fd;  // write side (== in_fd for accepted sockets)
  // False when in_fd rejects epoll registration (EPERM: a regular file).
  // Such a connection is scheduled synthetically — sound because regular
  // files are always ready and never EAGAIN.
  bool pollable = true;

  // Codec state: which framing the connection currently speaks. Flips
  // NDJSON -> binary on the upgrade handshake or a sniffed magic byte.
  api::WireProtocol wire;
  bool sniffed = false;  // first byte inspected (magic sniffing done)
  LineAssembler assembler;           // NDJSON framing
  api::BinaryFrameAssembler frames;  // v2 binary framing

  // A request is running on the pool. Until its response is appended to
  // `out`, nothing is read off the connection and no buffered frame is
  // taken, so responses are appended in arrival order.
  bool in_flight = false;

  std::string out;     // encoded frames awaiting write
  size_t out_pos = 0;  // bytes of `out` already written
  // Last epoll interest + registration state, per fd. A connection with
  // no interest (paused or half-closed, waiting on the pool) is
  // deregistered entirely: epoll reports EPOLLHUP regardless of the
  // mask, so leaving a hung-up fd registered would busy-spin the loop.
  uint32_t in_events = 0;
  uint32_t out_events = 0;
  bool in_registered = false;
  bool out_registered = false;

  bool read_closed = false;        // EOF seen, or the server is draining
  bool close_after_flush = false;  // fatal framing error: flush, then die
  int64_t requests = 0;            // requests read off this connection
  // Telemetry bookkeeping: whether the connection is currently counted
  // as read-paused (so server.backpressure_pauses counts transitions,
  // not loop iterations) and the unsent-byte figure last folded into the
  // server.write_buffer_bytes gauge.
  bool counted_paused = false;
  size_t reported_unsent = 0;
};

// The per-Serve() event loop. Split from the server object so Serve()'s
// state (epoll fd, connection table, pool) has clean RAII teardown while
// the ConnectionServer itself stays reusable for stats after returning.
class ConnectionServer::Loop {
 public:
  /// Listener mode: \p listen_fd >= 0, stream fds -1. Stream mode (one
  /// pre-connected read/write fd pair, no listener): listen_fd -1.
  Loop(ConnectionServer* server, int listen_fd, int stream_read_fd = -1,
       int stream_write_fd = -1)
      : server_(server),
        listen_fd_(listen_fd),
        stream_read_fd_(stream_read_fd),
        stream_write_fd_(stream_write_fd) {}

  ~Loop() {
    // The pool joins first (it references the completion queue and the
    // wake fd, both of which must still be alive); late completions are
    // discarded with their connections.
    pool_.reset();
    {
      MutexLock lock(server_->completions_mu_);
      server_->completions_.clear();
    }
    for (auto& [id, conn] : connections_) {
      ::close(conn->in_fd);
      if (conn->out_fd != conn->in_fd) ::close(conn->out_fd);
    }
    if (stream_read_fd_ >= 0) ::close(stream_read_fd_);
    if (stream_write_fd_ >= 0 && stream_write_fd_ != stream_read_fd_) {
      ::close(stream_write_fd_);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Status Run() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return Status::IOError(std::string("epoll_create1(): ") +
                             std::strerror(errno));
    }
    if (listen_fd_ >= 0) {
      WOT_RETURN_IF_ERROR(api::SetNonBlocking(listen_fd_));
      WOT_RETURN_IF_ERROR(Register(listen_fd_, kListenTag, EPOLLIN));
    }
    WOT_RETURN_IF_ERROR(Register(server_->wake_fd_, kWakeTag, EPOLLIN));

    int threads = server_->options_.num_threads;
    pool_ = std::make_unique<ThreadPool>(
        threads < 1 ? 1 : static_cast<size_t>(threads));

    if (stream_read_fd_ >= 0) {
      WOT_RETURN_IF_ERROR(InstallStreamConnection());
    }

    while (true) {
      if (connections_.empty() && (draining_ || listen_fd_ < 0)) {
        return Status::OK();
      }
      int timeout = -1;
      if (draining_) {
        int64_t remaining = drain_deadline_ms_ - MonotonicMillis();
        if (remaining <= 0) {
          ForceCloseAll();
          return Status::OK();
        }
        timeout = static_cast<int>(remaining);
      } else if (accept_paused_) {
        timeout = kAcceptRetryMillis;  // bounded back-off, then retry
      }
      if (AnyUnpollableRunnable()) {
        timeout = 0;  // synthetic readiness: don't sleep on epoll
      }
      epoll_event events[64];
      int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("epoll_wait(): ") +
                               std::strerror(errno));
      }
      server_->epoll_wakeups_->Increment();
      for (int i = 0; i < n; ++i) {
        uint64_t tag = events[i].data.u64;
        if (tag == kWakeTag) {
          DrainWakeFd();
        } else if (tag == kListenTag) {
          WOT_RETURN_IF_ERROR(AcceptAll());
        } else {
          HandleConnectionEvent(tag, events[i].events);
        }
      }
      RunUnpollable();
      DeliverCompletions();
      if (accept_paused_ && !draining_) {
        // Closed connections may have freed fds; resume accepting.
        if (Register(listen_fd_, kListenTag, EPOLLIN).ok()) {
          accept_paused_ = false;
          WOT_RETURN_IF_ERROR(AcceptAll());
        }
      }
      if (server_->stop_requested_.load(std::memory_order_acquire) &&
          !draining_) {
        BeginDrain();
      }
    }
  }

 private:
  Status Register(int fd, uint64_t tag, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Status::IOError(std::string("epoll_ctl(ADD): ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  // Brings one fd's epoll registration to exactly `want` (0 drops it).
  void UpdateRegistration(int fd, uint64_t tag, uint32_t want,
                          bool* registered, uint32_t* current) {
    if (want == 0) {
      if (*registered &&
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) == 0) {
        *registered = false;
      }
      return;
    }
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = tag;
    if (!*registered) {
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
        *registered = true;
        *current = want;
      }
    } else if (want != *current) {
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0) {
        *current = want;
      }
    }
  }

  Status InstallStreamConnection() {
    WOT_RETURN_IF_ERROR(api::SetNonBlocking(stream_read_fd_));
    if (stream_write_fd_ != stream_read_fd_) {
      WOT_RETURN_IF_ERROR(api::SetNonBlocking(stream_write_fd_));
    }
    uint64_t id = next_connection_id_++;
    auto conn = std::make_unique<Connection>(
        id, stream_read_fd_, stream_write_fd_, server_->options_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->in_fd, &ev) == 0) {
      conn->in_registered = true;
      conn->in_events = EPOLLIN;
    } else if (errno == EPERM) {
      // A regular file: not pollable, but also never blocks — schedule
      // it synthetically instead.
      conn->pollable = false;
      ++unpollable_connections_;
    } else {
      return Status::IOError(std::string("epoll_ctl(ADD stream): ") +
                             std::strerror(errno));
    }
    // Ownership moved into the connection table.
    stream_read_fd_ = -1;
    stream_write_fd_ = -1;
    connections_.emplace(id, std::move(conn));
    server_->accepted_->Increment();
    server_->active_->Add(1);
    return Status::OK();
  }

  void DrainWakeFd() {
    uint64_t count = 0;
    // Nonblocking eventfd: EAGAIN just means another drain got it first.
    ssize_t n = ::read(server_->wake_fd_, &count, sizeof(count));
    (void)n;
  }

  Status AcceptAll() {
    while (true) {
      bool exhausted = false;
      Result<int> accepted =
          api::AcceptNonBlocking(listen_fd_, &exhausted);
      if (!accepted.ok()) {
        return accepted.status();
      }
      int fd = accepted.ValueOrDie();
      if (fd < 0) {
        if (exhausted && !accept_paused_) {
          // Out of fds: stop accepting for a beat rather than busy-spin
          // on a level-triggered listener we cannot accept from (or,
          // worse, kill the healthy connections by failing the loop).
          WOT_LOG(Warning) << "connection server out of descriptors; "
                              "pausing accept for "
                           << kAcceptRetryMillis << " ms";
          if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_,
                          nullptr) == 0) {
            accept_paused_ = true;
          }
        }
        return Status::OK();
      }
      if (!api::SetNonBlocking(fd).ok()) {
        ::close(fd);
        continue;
      }
      uint64_t id = next_connection_id_++;
      auto conn =
          std::make_unique<Connection>(id, fd, fd, server_->options_);
      if (!Register(fd, id, EPOLLIN).ok()) {
        ::close(fd);
        continue;
      }
      conn->in_registered = true;
      conn->in_events = EPOLLIN;
      connections_.emplace(id, std::move(conn));
      server_->accepted_->Increment();
      server_->active_->Add(1);
    }
  }

  void HandleConnectionEvent(uint64_t tag, uint32_t events) {
    bool write_side = (tag & kWriteTagBit) != 0;
    auto it = connections_.find(tag & ~kWriteTagBit);
    if (it == connections_.end()) {
      return;  // closed earlier this wakeup
    }
    Connection* conn = it->second.get();
    if (!write_side &&
        (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && Reading(*conn)) {
      if (!ReadFromConnection(conn)) {
        Close(conn, nullptr);
        return;
      }
    }
    if ((events & EPOLLOUT) != 0 ||
        (write_side && (events & (EPOLLHUP | EPOLLERR)) != 0)) {
      if (!TryWrite(conn)) {
        Close(conn, nullptr);
        return;
      }
    }
    Settle(conn);
  }

  bool AnyUnpollableRunnable() const {
    if (unpollable_connections_ == 0) return false;
    for (const auto& [id, conn] : connections_) {
      if (!conn->pollable && UnpollableEvents(*conn) != 0) return true;
    }
    return false;
  }

  uint32_t UnpollableEvents(const Connection& conn) const {
    uint32_t events = 0;
    if (Reading(conn)) events |= EPOLLIN;
    if (conn.out.size() - conn.out_pos > 0) events |= EPOLLOUT;
    return events;
  }

  // Synthetic scheduling for regular-file connections: run whatever an
  // epoll event would have triggered. Terminates because file reads and
  // writes always make progress (never EAGAIN) until EOF/flush.
  void RunUnpollable() {
    if (unpollable_connections_ == 0) return;
    std::vector<uint64_t> ids;
    for (const auto& [id, conn] : connections_) {
      if (!conn->pollable) ids.push_back(id);
    }
    for (uint64_t id : ids) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      uint32_t events = UnpollableEvents(*it->second);
      if (events != 0) {
        HandleConnectionEvent(id, events);
      }
    }
  }

  // Reads one chunk and answers every complete request in it. The rest
  // of the socket buffer waits for the next readiness event (epoll is
  // level-triggered), so one pipelining client cannot hold the loop.
  // Returns false on a hard transport error (caller closes).
  bool ReadFromConnection(Connection* conn) {
    char chunk[kReadChunkBytes];
    ssize_t n = 0;
    do {
      n = ::read(conn->in_fd, chunk, sizeof(chunk));
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      IngestBytes(conn, std::string_view(chunk, static_cast<size_t>(n)));
      return true;
    }
    if (n == 0) {
      conn->read_closed = true;
      FinishInput(conn);
      return true;
    }
    return errno == EAGAIN || errno == EWOULDBLOCK;  // else ECONNRESET...
  }

  // Feeds raw bytes into the connection's current codec and answers
  // what they complete.
  void IngestBytes(Connection* conn, std::string_view bytes) {
    if (!conn->sniffed) {
      conn->sniffed = true;
      if (conn->wire == api::WireProtocol::kNdjson &&
          static_cast<uint8_t>(bytes[0]) == api::kBinaryMagic) {
        // A binary-first client: 0xB2 can never start an NDJSON frame.
        conn->wire = api::WireProtocol::kBinary;
      }
    }
    if (conn->wire == api::WireProtocol::kNdjson) {
      conn->assembler.Append(bytes);  // overflow is answered by Pump
    } else {
      conn->frames.Append(bytes);
    }
    Pump(conn);
  }

  // Takes buffered frames in arrival order until one goes to the pool,
  // which holds the rest until its response is back. Once no complete
  // frame is left, answers a framing fault the buffered bytes carry, so
  // a fault behind an in-flight request is answered after it.
  void Pump(Connection* conn) {
    while (!conn->in_flight && !conn->close_after_flush) {
      std::optional<std::string> frame = NextFrame(conn);
      if (!frame.has_value()) break;
      HandleFrame(conn, std::move(*frame));
    }
    if (conn->in_flight || conn->close_after_flush) return;
    api::Response error;
    if (conn->wire == api::WireProtocol::kNdjson) {
      if (!conn->assembler.overflowed()) return;
      error.status = api::ApiStatus::InvalidArgument(
          "request line exceeds " + std::to_string(kMaxLineBytes) +
          " bytes");
    } else {
      // Bad magic or oversized payload: binary framing cannot resync, so
      // answer once (id 0 — the header is untrustworthy).
      if (!conn->frames.faulted()) return;
      error.status =
          api::ApiStatus::InvalidArgument(conn->frames.fault_message());
    }
    // One framed error, then the connection dies once it is flushed.
    conn->out +=
        OnWire(conn->wire, api::EncodeResponseFor(conn->wire, error));
    conn->read_closed = true;
    conn->close_after_flush = true;
    server_->closed_oversized_->Increment();
  }

  // The next complete frame in the connection's current framing.
  std::optional<std::string> NextFrame(Connection* conn) {
    if (conn->wire == api::WireProtocol::kBinary) {
      return conn->frames.NextFrame();
    }
    std::optional<std::string> line;
    do {
      line = conn->assembler.NextLine();
    } while (line.has_value() && line->empty());  // blank lines: ignored
    return line;
  }

  // EOF: answers what the codec still buffers. Pump ran after the last
  // read, so only an unterminated tail can be left.
  void FinishInput(Connection* conn) {
    if (conn->wire == api::WireProtocol::kNdjson) {
      // Tolerant framing: an unterminated final line still counts.
      std::string tail = conn->assembler.TakeTail();
      if (!tail.empty()) HandleFrame(conn, std::move(tail));
    } else if (conn->frames.buffered() > 0 && !conn->frames.faulted()) {
      // A truncated trailing binary frame still gets a framed answer.
      api::Response error;
      error.status = api::ApiStatus::InvalidArgument(
          "truncated binary frame at end of stream");
      conn->out += api::EncodeResponseBinary(error);
    }
  }

  // Answers one frame: the upgrade handshake, a decode error and a
  // request the frontend runs inline on this thread; any other request
  // goes to the pool and holds the connection until it is answered.
  void HandleFrame(Connection* conn, std::string frame) {
    const api::WireProtocol wire = conn->wire;
    if (wire == api::WireProtocol::kNdjson && HandleUpgrade(conn, frame)) {
      if (conn->wire == api::WireProtocol::kBinary) {
        // Upgraded mid-buffer: everything after the handshake line is
        // binary (the line-length verdict no longer applies to it).
        conn->frames.Append(conn->assembler.TakeTail());
      }
      return;
    }
    ++conn->requests;
    server_->dispatched_->Increment();
    api::Frontend* frontend = server_->frontend_;
    api::Request request;
    if (std::optional<std::string> error =
            frontend->DecodeFrame(frame, wire, &request)) {
      conn->out += OnWire(wire, *std::move(error));
      return;
    }
    api::ConnectionContext context;
    context.connections_active = server_->active_->Value();
    context.connections_accepted = server_->accepted_->Value();
    context.connection_requests_served = conn->requests;
    context.connection_id = static_cast<int64_t>(conn->id);
    if (frontend->RunsInline(request)) {
      api::Response response = frontend->Dispatch(request, context);
      conn->out += OnWire(wire, api::EncodeResponseFor(wire, response));
      return;
    }
    conn->in_flight = true;
    ConnectionServer* server = server_;
    uint64_t id = conn->id;
    // Started here, stopped by the worker: the gap is the time the
    // request sat in the pool's queue behind other work.
    telemetry::Timer queue_timer;
    pool_->Submit([server, id, wire, context, queue_timer,
                   request = std::move(request)]() {
      queue_timer.RecordInto(server->queue_wait_ns_);
      api::Response response = server->frontend_->Dispatch(request, context);
      Completion done{id, OnWire(wire, api::EncodeResponseFor(wire, response))};
      {
        MutexLock lock(server->completions_mu_);
        server->completions_.push_back(std::move(done));
      }
      server->Wake();
    });
  }

  // Consumes `line` when it is the transport-level upgrade handshake.
  // Accepting it acknowledges with a bare OK (in FIFO position, still
  // NDJSON) and flips the connection's codec; every later byte is binary.
  bool HandleUpgrade(Connection* conn, const std::string& line) {
    if (line.find("\"upgrade\"") == std::string::npos) {
      return false;  // cheap reject before parsing
    }
    std::optional<api::UpgradeRequest> upgrade =
        api::ParseUpgradeLine(line);
    if (!upgrade.has_value()) {
      return false;
    }
    ++conn->requests;
    if (upgrade->protocol == api::kBinaryProtocolVersion) {
      conn->out += api::EncodeUpgradeAccept(upgrade->id) + "\n";
      conn->wire = api::WireProtocol::kBinary;
    } else {
      // Unknown target protocol: refuse, stay on NDJSON.
      api::Response error;
      error.id = upgrade->id;
      error.status = api::ApiStatus::InvalidArgument(
          "unsupported protocol " + std::to_string(upgrade->protocol) +
          " (this server can upgrade to protocol " +
          std::to_string(api::kBinaryProtocolVersion) + ")");
      conn->out += api::EncodeResponse(error) + "\n";
    }
    return true;
  }

  // Appends each pool response to its connection, resumes taking that
  // connection's buffered frames, and flushes.
  void DeliverCompletions() {
    std::vector<Completion> batch;
    {
      MutexLock lock(server_->completions_mu_);
      batch.swap(server_->completions_);
    }
    // One completion per connection at most: a connection submits its
    // next request only after its previous response was delivered.
    for (Completion& done : batch) {
      auto it = connections_.find(done.connection_id);
      if (it == connections_.end()) {
        continue;  // connection died before its response was ready
      }
      Connection* conn = it->second.get();
      conn->in_flight = false;
      conn->out += done.frame;
      Pump(conn);
      Settle(conn);
    }
  }

  static bool BacklogPaused(const Connection& conn) {
    return conn.out.size() - conn.out_pos > kReadPauseThreshold;
  }

  // Whether the loop reads from the connection now.
  static bool Reading(const Connection& conn) {
    return !conn.read_closed && !conn.in_flight && !BacklogPaused(conn);
  }

  // Folds this connection's unsent-output and read-pause state into the
  // server-wide gauge/counter. Counts pause *transitions* (entering the
  // paused state), not iterations spent paused.
  void UpdateBackpressureTelemetry(Connection* conn) {
    size_t unsent = conn->out.size() - conn->out_pos;
    if (unsent != conn->reported_unsent) {
      server_->write_buffer_bytes_->Add(static_cast<int64_t>(unsent) -
                                        static_cast<int64_t>(
                                            conn->reported_unsent));
      conn->reported_unsent = unsent;
    }
    bool paused_now = !conn->read_closed && BacklogPaused(*conn);
    if (paused_now && !conn->counted_paused) {
      server_->backpressure_pauses_->Increment();
    }
    conn->counted_paused = paused_now;
  }

  // Writes what the socket accepts, enforces backpressure, updates epoll
  // interest, and closes the connection when finished.
  void Settle(Connection* conn) {
    if (!TryWrite(conn)) {
      Close(conn, nullptr);
      return;
    }
    UpdateBackpressureTelemetry(conn);
    size_t unsent = conn->out.size() - conn->out_pos;
    if (unsent > kMaxPendingOutput) {
      // Slow client: it is not draining responses as fast as it
      // pipelines requests. Cut it loose rather than buffer unboundedly.
      Close(conn, server_->closed_slow_);
      return;
    }
    if (conn->read_closed && !conn->in_flight && unsent == 0) {
      Close(conn, nullptr);  // finished
      return;
    }
    if (!conn->pollable) {
      return;  // scheduled synthetically, never registered
    }
    uint32_t want = 0;
    if (Reading(*conn)) want |= EPOLLIN;
    if (unsent > 0) want |= EPOLLOUT;
    if (conn->in_fd == conn->out_fd) {
      UpdateRegistration(conn->in_fd, conn->id, want,
                         &conn->in_registered, &conn->in_events);
    } else {
      UpdateRegistration(conn->in_fd, conn->id, want & EPOLLIN,
                         &conn->in_registered, &conn->in_events);
      UpdateRegistration(conn->out_fd, conn->id | kWriteTagBit,
                         want & EPOLLOUT, &conn->out_registered,
                         &conn->out_events);
    }
  }

  // Writes buffered output until the fd would block. Returns false on a
  // hard error (peer gone).
  bool TryWrite(Connection* conn) {
    while (conn->out_pos < conn->out.size()) {
      ssize_t n = ::write(conn->out_fd, conn->out.data() + conn->out_pos,
                          conn->out.size() - conn->out_pos);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;  // EPIPE/ECONNRESET: the client is gone
    }
    conn->out.clear();
    conn->out_pos = 0;
    return true;
  }

  void Close(Connection* conn, telemetry::Counter* reason_counter) {
    if (reason_counter != nullptr) {
      reason_counter->Increment();
    }
    if (conn->reported_unsent != 0) {
      // Whatever this connection still had buffered leaves with it.
      server_->write_buffer_bytes_->Add(
          -static_cast<int64_t>(conn->reported_unsent));
      conn->reported_unsent = 0;
    }
    if (conn->in_registered) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->in_fd, nullptr);
    }
    if (conn->out_registered) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->out_fd, nullptr);
    }
    if (!conn->pollable) {
      --unpollable_connections_;
    }
    // Discard whatever the client pipelined past what we answered:
    // closing a unix socket with unread buffered input resets the peer,
    // which would destroy the already-delivered responses sitting in its
    // receive buffer (drained shutdowns would look like ECONNRESET).
    char discard[4096];
    while (::read(conn->in_fd, discard, sizeof(discard)) > 0) {
    }
    ::close(conn->in_fd);
    if (conn->out_fd != conn->in_fd) {
      ::close(conn->out_fd);
    }
    server_->active_->Add(-1);
    connections_.erase(conn->id);  // invalidates conn
  }

  void BeginDrain() {
    draining_ = true;
    drain_deadline_ms_ = MonotonicMillis() + kDrainTimeoutMs;
    if (listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Answer everything already read, including frames held behind an
    // in-flight request; ignore further input. Collect ids first —
    // Settle() may erase connections while we iterate.
    std::vector<uint64_t> ids;
    ids.reserve(connections_.size());
    for (auto& [id, conn] : connections_) {
      conn->read_closed = true;
      ids.push_back(id);
    }
    for (uint64_t id : ids) {
      auto it = connections_.find(id);
      if (it != connections_.end()) {
        Settle(it->second.get());
      }
    }
  }

  void ForceCloseAll() {
    std::vector<uint64_t> ids;
    ids.reserve(connections_.size());
    for (auto& [id, conn] : connections_) {
      ids.push_back(id);
    }
    for (uint64_t id : ids) {
      auto it = connections_.find(id);
      if (it != connections_.end()) {
        Close(it->second.get(), nullptr);
      }
    }
  }

  ConnectionServer* server_;
  int listen_fd_;
  int stream_read_fd_;   // pre-connected stream, -1 in listener mode;
  int stream_write_fd_;  // reset to -1 once installed as a connection
  int epoll_fd_ = -1;
  std::unique_ptr<ThreadPool> pool_;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = kFirstConnectionId;
  size_t unpollable_connections_ = 0;
  bool draining_ = false;
  int64_t drain_deadline_ms_ = 0;
  // Fd exhaustion: the listener is deregistered and re-tried on a timed
  // wakeup instead of spinning or failing the loop.
  bool accept_paused_ = false;
  static constexpr int kAcceptRetryMillis = 100;
};

ConnectionServer::ConnectionServer(api::Frontend* frontend,
                                   const ConnectionServerOptions& options)
    : frontend_(frontend),
      options_(options),
      metrics_(std::make_shared<telemetry::MetricRegistry>()),
      accepted_(metrics_->counter("server.connections_accepted")),
      active_(metrics_->gauge("server.connections_active")),
      closed_slow_(metrics_->counter("server.closed_slow")),
      closed_oversized_(metrics_->counter("server.closed_oversized")),
      dispatched_(metrics_->counter("server.requests_dispatched")),
      epoll_wakeups_(metrics_->counter("server.epoll_wakeups")),
      backpressure_pauses_(
          metrics_->counter("server.backpressure_pauses")),
      write_buffer_bytes_(metrics_->gauge("server.write_buffer_bytes")),
      queue_wait_ns_(metrics_->histogram("server.queue_wait_ns")) {
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
}

ConnectionServer::~ConnectionServer() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void ConnectionServer::Wake() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  // write(2) is async-signal-safe; a full eventfd counter (EAGAIN) means
  // a wakeup is already pending, which is all we need.
  ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  (void)n;
}

Status ConnectionServer::Serve(int listen_fd) {
  if (wake_fd_ < 0) {
    ::close(listen_fd);
    return Status::IOError("eventfd() failed at construction");
  }
  return Loop(this, listen_fd).Run();
}

Status ConnectionServer::ServeConnection(int read_fd, int write_fd) {
  if (wake_fd_ < 0) {
    ::close(read_fd);
    if (write_fd != read_fd) ::close(write_fd);
    return Status::IOError("eventfd() failed at construction");
  }
  return Loop(this, /*listen_fd=*/-1, read_fd, write_fd).Run();
}

void ConnectionServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  Wake();
}

ConnectionServerStats ConnectionServer::stats() const {
  ConnectionServerStats stats;
  stats.connections_accepted = accepted_->Value();
  stats.connections_active = active_->Value();
  stats.connections_closed_slow = closed_slow_->Value();
  stats.connections_closed_oversized = closed_oversized_->Value();
  stats.requests_dispatched = dispatched_->Value();
  return stats;
}

}  // namespace server
}  // namespace wot
