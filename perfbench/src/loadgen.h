// Open-loop load generator over the real unix-socket ConnectionServer,
// speaking the v2 binary wire.
//
// Request i of a phase is due at start + i / rate, whatever happened to
// earlier requests (independent users, not waiting callers), and is sent
// on connection i % connections. Each connection is one thread that
// writes due frames, sleeps until the next due time or a readable
// socket, and matches responses to requests by id. Latency is timed from
// the due time, so a stall is charged to every request queued behind it;
// how late the generator itself ran is reported separately.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "wot/api/api.h"
#include "wot/util/status.h"

namespace perfbench {

enum OpKind : uint8_t { kTrust = 0, kTopK = 1 };

/// One generated read: trust(source, target) or topk(source, 10). User
/// refs are sent as decimal indices.
struct Op {
  OpKind kind = kTrust;
  uint32_t source = 0;
  uint32_t target = 0;
};

inline constexpr int64_t kTopKWidth = 10;

/// Builds the wire request of \p op.
wot::api::Request MakeRequest(const Op& op, int64_t id);

/// Judges one OK response: true when the answer is right. Called on the
/// connection's thread, concurrently across connections.
using Checker = std::function<bool(const Op&, const wot::api::Response&)>;

enum class Outcome : uint8_t {
  kMissing = 0,  ///< no response before the drain deadline
  kOk = 1,
  kError = 2,  ///< non-OK status
  kWrong = 3,  ///< OK status, wrong answer
};

struct RequestRecord {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  OpKind kind = kTrust;
  Outcome outcome = Outcome::kMissing;
};

/// One traced interval of one request, recorded by the generator around
/// its own calls: the wait before sending, the round trip, the check.
struct Span {
  enum Name : uint8_t { kSchedule = 0, kRoundTrip = 1, kCheck = 2 };
  uint32_t request = 0;
  Name name = kSchedule;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct PhaseResult {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<RequestRecord> records;  ///< indexed by request
  std::vector<Span> spans;             ///< traced phases only
  int64_t failed() const;              ///< not kOk
  int64_t wrong() const;               ///< kWrong
  /// Generator lateness (sent - due, in µs) of every sent request.
  std::vector<double> LatenessUs() const;
};

class OpenLoopGenerator {
 public:
  OpenLoopGenerator(std::string socket_path, int connections,
                    Checker checker);
  ~OpenLoopGenerator();
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  wot::Status Connect();

  /// Offers \p rate requests/s for \p seconds, drawing ops cyclically
  /// from \p ops (continuing where the previous phase stopped), then
  /// waits up to two seconds for stragglers.
  PhaseResult Run(const std::vector<Op>& ops, double rate, double seconds,
                  bool trace);

  int connections() const { return static_cast<int>(fds_.size()); }

 private:
  const std::string socket_path_;
  const int num_connections_;
  const Checker checker_;
  std::vector<int> fds_;
  size_t cursor_ = 0;
  int64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
