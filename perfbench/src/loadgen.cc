#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <thread>
#include <utility>

#include "stats.h"
#include "wot/api/binary_codec.h"
#include "wot/api/unix_socket.h"

namespace perfbench {

namespace api = wot::api;

api::Request MakeRequest(const Op& op, int64_t id) {
  api::Request request;
  request.id = id;
  if (op.kind == kTrust) {
    request.payload = api::TrustQuery{std::to_string(op.source),
                                      std::to_string(op.target)};
  } else {
    request.payload = api::TopKQuery{std::to_string(op.source), kTopKWidth};
  }
  return request;
}

int64_t PhaseResult::failed() const {
  int64_t count = 0;
  for (const RequestRecord& record : records) {
    if (record.outcome != Outcome::kOk) ++count;
  }
  return count;
}

int64_t PhaseResult::wrong() const {
  int64_t count = 0;
  for (const RequestRecord& record : records) {
    if (record.outcome == Outcome::kWrong) ++count;
  }
  return count;
}

std::vector<double> PhaseResult::LatenessUs() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const RequestRecord& record : records) {
    if (record.sent_ns != 0) {
      out.push_back(static_cast<double>(record.sent_ns - record.due_ns) /
                    1e3);
    }
  }
  return out;
}

OpenLoopGenerator::OpenLoopGenerator(std::string socket_path,
                                     int connections, Checker checker)
    : socket_path_(std::move(socket_path)),
      num_connections_(connections),
      checker_(std::move(checker)) {}

OpenLoopGenerator::~OpenLoopGenerator() {
  for (int fd : fds_) ::close(fd);
}

wot::Status OpenLoopGenerator::Connect() {
  for (int c = 0; c < num_connections_; ++c) {
    WOT_ASSIGN_OR_RETURN(int fd, api::ConnectUnixSocket(socket_path_));
    fds_.push_back(fd);
    WOT_RETURN_IF_ERROR(api::SetNonBlocking(fd));
  }
  return wot::Status::OK();
}

namespace {

constexpr int64_t kDrainNs = 2'000'000'000;

struct ConnectionPlan {
  int fd = -1;
  std::vector<size_t> requests;  // phase request indices, ascending
  std::string blob;              // their encoded frames, back to back
  std::vector<size_t> ends;      // blob offset after each frame
};

// Drives one connection through its share of the phase.
void RunConnection(ConnectionPlan& plan, const std::vector<Op>& phase_ops,
                   int64_t id_base, const Checker& checker, bool trace,
                   std::vector<RequestRecord>& records,
                   std::vector<Span>& spans) {
  // Sleep precisely: the default 50 µs timer slack would add itself to
  // every scheduled send.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  api::BinaryFrameAssembler frames(64u << 20);
  const size_t total = plan.requests.size();
  size_t due_count = 0;   // frames released for sending
  size_t written = 0;     // blob bytes written
  size_t received = 0;
  const int64_t deadline =
      (total == 0 ? NowNs() : records[plan.requests.back()].due_ns) +
      kDrainNs;
  char buffer[1 << 16];
  while (received < total) {
    int64_t now = NowNs();
    while (due_count < total &&
           records[plan.requests[due_count]].due_ns <= now) {
      RequestRecord& record = records[plan.requests[due_count]];
      record.sent_ns = now;
      if (trace) {
        spans.push_back({static_cast<uint32_t>(plan.requests[due_count]),
                         Span::kSchedule, record.due_ns, now});
      }
      ++due_count;
    }
    const size_t releasable = due_count == 0 ? 0 : plan.ends[due_count - 1];
    if (written < releasable) {
      const ssize_t n =
          ::send(plan.fd, plan.blob.data() + written, releasable - written,
                 MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        break;  // the server dropped the connection: the rest stay kMissing
      }
    }
    while (true) {
      const ssize_t n = ::read(plan.fd, buffer, sizeof(buffer));
      if (n <= 0) break;
      frames.Append(std::string_view(buffer, static_cast<size_t>(n)));
      while (std::optional<std::string> frame = frames.NextFrame()) {
        const int64_t done = NowNs();
        api::Response response;
        const bool decoded =
            api::DecodeResponseBinary(*frame, &response).ok();
        const int64_t index = response.id - id_base;
        if (!decoded || index < 0 ||
            static_cast<size_t>(index) >= records.size()) {
          continue;  // a straggler of an earlier phase
        }
        RequestRecord& record = records[static_cast<size_t>(index)];
        if (record.outcome != Outcome::kMissing || record.sent_ns == 0) {
          continue;
        }
        record.done_ns = done;
        if (!response.status.ok()) {
          record.outcome = Outcome::kError;
        } else {
          const bool right =
              checker(phase_ops[static_cast<size_t>(index)], response);
          record.outcome = right ? Outcome::kOk : Outcome::kWrong;
        }
        if (trace) {
          spans.push_back({static_cast<uint32_t>(index), Span::kRoundTrip,
                           record.sent_ns, done});
          spans.push_back({static_cast<uint32_t>(index), Span::kCheck, done,
                           NowNs()});
        }
        ++received;
      }
    }
    if (received >= total) break;
    now = NowNs();
    if (now >= deadline) break;  // the rest stay kMissing
    int64_t wait_ns = deadline - now;
    if (due_count < total) {
      wait_ns = std::min(wait_ns,
                         records[plan.requests[due_count]].due_ns - now);
    }
    if (wait_ns <= 0) continue;
    pollfd pfd{plan.fd, static_cast<short>(POLLIN), 0};
    if (written < releasable) pfd.events |= POLLOUT;
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    ::ppoll(&pfd, 1, &timeout, nullptr);
  }
}

}  // namespace

PhaseResult OpenLoopGenerator::Run(const std::vector<Op>& ops, double rate,
                                   double seconds, bool trace) {
  PhaseResult result;
  result.rate = rate;
  result.seconds = seconds;
  const size_t total =
      std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  std::vector<Op> phase_ops(total);
  for (size_t i = 0; i < total; ++i) {
    phase_ops[i] = ops[(cursor_ + i) % ops.size()];
  }
  cursor_ = (cursor_ + total) % ops.size();
  const int64_t id_base = next_id_;
  next_id_ += static_cast<int64_t>(total);

  // Encode every frame before the clock starts, so the generator's own
  // encoding never delays a send.
  const size_t width = fds_.size();
  std::vector<ConnectionPlan> plans(width);
  for (size_t c = 0; c < width; ++c) plans[c].fd = fds_[c];
  for (size_t i = 0; i < total; ++i) {
    ConnectionPlan& plan = plans[i % width];
    plan.requests.push_back(i);
    plan.blob += api::EncodeRequestBinary(
        MakeRequest(phase_ops[i], id_base + static_cast<int64_t>(i)));
    plan.ends.push_back(plan.blob.size());
  }
  result.records.resize(total);
  const double period_ns = 1e9 / rate;
  const int64_t start = NowNs() + 5'000'000;
  for (size_t i = 0; i < total; ++i) {
    result.records[i].kind = phase_ops[i].kind;
    result.records[i].due_ns =
        start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
  }
  std::vector<std::vector<Span>> spans(width);
  std::vector<std::thread> threads;
  threads.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    threads.emplace_back([&, c] {
      RunConnection(plans[c], phase_ops, id_base, checker_, trace,
                    result.records, spans[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::vector<Span>& list : spans) {
    result.spans.insert(result.spans.end(), list.begin(), list.end());
  }
  return result;
}

}  // namespace perfbench
