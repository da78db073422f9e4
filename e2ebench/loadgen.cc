#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/codec.h"
#include "calibrate.h"
#include "common.h"
#include "util/rng.h"
#include "wire.h"

namespace osum::e2e {

namespace {

bool OracleSampled(uint64_t index) { return index % kOracleStride == 0; }

/// Counts one response payload into the tally; returns it decoded when it
/// carries an OK status.
std::optional<api::QueryResponse> Account(const std::string& payload,
                                          Tally* tally) {
  ++tally->received;
  tally->resp_bytes += FrameBytes(payload);
  api::StatusOr<api::QueryResponse> response = api::DecodeResponse(payload);
  if (!response.ok() || !response->ok()) {
    ++tally->not_ok;
    return std::nullopt;
  }
  return std::move(*response);
}

struct Outstanding {
  uint64_t index = 0;
  std::optional<api::QueryRequest> request;  // kept only when sampled
};

struct ClosedConn {
  std::unique_ptr<WireConnection> wire;
  std::deque<Outstanding> outstanding;
};

/// The closed loop's generator state, kept across rounds so the stream,
/// the oracle sample and the rebind cadence run on from round to round.
class ClosedGenerator {
 public:
  ClosedGenerator(Stack* stack, RequestStream* stream, size_t rebind_every,
                  ClosedLoopResult* out)
      : stack_(stack), stream_(stream), rebind_every_(rebind_every),
        out_(out) {
    for (size_t c = 0; c < kClosedConnections; ++c) {
      conns_.push_back({WireConnection::Connect(stack->port()), {}});
      fds_.push_back({conns_.back().wire->fd(), POLLIN, 0});
    }
  }

  /// One round: fills every window, keeps it full until `seconds` have
  /// passed, then drains it.
  ClosedRound Round(double seconds) {
    ClosedRound round;
    rebind_cpu_s_ = 0;
    const double cpu_start = ProcessCpuSeconds() - ThreadCpuSeconds();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (ClosedConn& conn : conns_) {
      for (size_t i = 0; i < kClosedWindow; ++i) SendNext(&conn);
    }
    while (Pending()) {
      int rc = ::poll(fds_.data(), fds_.size(), 10'000);
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) {
        throw std::runtime_error("closed loop: no response for 10 s");
      }
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (fds_[i].revents == 0) continue;
        ClosedConn& conn = conns_[i];
        if (!conn.wire->ReadSome()) {
          throw std::runtime_error("closed loop: connection lost");
        }
        while (std::optional<std::string> payload = conn.wire->NextFrame()) {
          Receive(&conn, *payload);
          ++round.completed;
          if (Clock::now() < deadline) SendNext(&conn);
        }
      }
    }
    round.wall_s = SecondsSince(start);
    round.server_cpu_s =
        ProcessCpuSeconds() - ThreadCpuSeconds() - cpu_start + rebind_cpu_s_;
    return round;
  }

 private:
  bool Pending() const {
    for (const ClosedConn& c : conns_) {
      if (!c.outstanding.empty()) return true;
    }
    return false;
  }

  void SendNext(ClosedConn* conn) {
    const uint64_t index = next_index_++;
    if (rebind_every_ != 0 && index % rebind_every_ == rebind_every_ - 1) {
      // The rebind is the served stack's work, though this thread does it.
      const double cpu = ThreadCpuSeconds();
      out_->rebind_ms.push_back(stack_->RebindToOther());
      rebind_cpu_s_ += ThreadCpuSeconds() - cpu;
    }
    api::QueryRequest request = stream_->Next();
    conn->wire->Send(request);
    ++out_->tally.sent;
    Outstanding o{index, std::nullopt};
    if (OracleSampled(index)) o.request = std::move(request);
    conn->outstanding.push_back(std::move(o));
  }

  void Receive(ClosedConn* conn, const std::string& payload) {
    if (conn->outstanding.empty()) {
      throw std::runtime_error("closed loop: unsolicited response");
    }
    Outstanding o = std::move(conn->outstanding.front());
    conn->outstanding.pop_front();
    std::optional<api::QueryResponse> response = Account(payload, &out_->tally);
    if (response && o.request && out_->tally.samples.size() < kOracleCap) {
      out_->tally.samples.emplace_back(std::move(*o.request),
                                       std::move(*response));
    }
  }

  Stack* const stack_;
  RequestStream* const stream_;
  const size_t rebind_every_;
  ClosedLoopResult* const out_;
  std::vector<ClosedConn> conns_;
  std::vector<pollfd> fds_;
  uint64_t next_index_ = 0;
  double rebind_cpu_s_ = 0;
};

}  // namespace

Tally Warm(uint16_t port, RequestStream* stream) {
  Tally tally;
  std::unique_ptr<WireConnection> wire = WireConnection::Connect(port);
  for (size_t i = 0; i < kWarmRequests; ++i) {
    wire->Send(stream->Next());
    ++tally.sent;
    std::optional<std::string> payload = wire->ReadFrame();
    if (!payload) throw std::runtime_error("warm-up: connection lost");
    Account(*payload, &tally);
  }
  return tally;
}

size_t OracleMismatches(const search::SearchContext& reference,
                        const Tally& tally) {
  size_t mismatches = 0;
  for (const auto& [request, served] : tally.samples) {
    if (api::DeterministicResponseText(served) !=
        api::DeterministicResponseText(reference.Execute(request))) {
      ++mismatches;
    }
  }
  return mismatches;
}

ClosedLoopResult RunClosedLoop(Stack* stack, RequestStream* stream,
                               double seconds, size_t rebind_every) {
  ClosedLoopResult result;
  ClosedGenerator generator(stack, stream, rebind_every, &result);
  const size_t rounds =
      std::max<size_t>(1, std::lround(seconds / kRoundS));
  result.calibration_ms.push_back(CalibrateMs());
  for (size_t r = 0; r < rounds; ++r) {
    result.rounds.push_back(generator.Round(kRoundS));
    result.calibration_ms.push_back(CalibrateMs());
  }
  return result;
}

OpenLoopResult RunOpenLoop(Stack* stack, RequestStream* stream,
                           double seconds, uint64_t schedule_seed,
                           size_t rebind_every) {
  // Seeded exponential gaps: the schedule, and so the request count, is a
  // function of the seed alone.
  std::vector<double> schedule_s;
  util::Rng rng(schedule_seed);
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / kOpenRateQps;
    if (t >= seconds) break;
    schedule_s.push_back(t);
  }

  OpenLoopResult result;
  result.late_us.resize(schedule_s.size(), 0.0);
  std::unique_ptr<WireConnection> wire = WireConnection::Connect(stack->port());
  Clock::time_point epoch = Clock::now();
  auto due = [&](size_t i) {
    return epoch + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule_s[i]));
  };
  // Requests are drawn on the fly (a stored stream would inflate peak
  // RSS); the sender keeps the oracle's sampled ones, the receiver their
  // responses, and the two are paired after the join.
  uint64_t sent = 0;
  std::vector<std::pair<uint64_t, api::QueryRequest>> sampled_requests;
  std::exception_ptr send_error;
  double sender_cpu_s = 0;
  const double receiver_cpu_start = ThreadCpuSeconds();
  std::thread sender([&] {
    const double cpu_start = ThreadCpuSeconds();
    // Precise wake-ups without spinning: a spinning sender would take a
    // core from the server it is loading.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    try {
      for (size_t i = 0; i < schedule_s.size(); ++i) {
        api::QueryRequest request = stream->Next();
        Clock::time_point target = due(i);
        std::this_thread::sleep_until(target);
        result.late_us[i] = MicrosBetween(target, Clock::now());
        wire->Send(request);
        ++sent;
        if (OracleSampled(i) && sampled_requests.size() < kOracleCap) {
          sampled_requests.emplace_back(i, std::move(request));
        }
      }
    } catch (...) {
      send_error = std::current_exception();
      ::shutdown(wire->fd(), SHUT_RDWR);  // unblock the receiver
    }
    sender_cpu_s = ThreadCpuSeconds() - cpu_start;
  });
  std::vector<std::pair<uint64_t, api::QueryResponse>> sampled_responses;
  result.latency_us.reserve(schedule_s.size());
  for (size_t i = 0; i < schedule_s.size(); ++i) {
    std::optional<std::string> payload = wire->ReadFrame();
    if (!payload) break;
    result.latency_us.push_back(MicrosBetween(due(i), Clock::now()));
    std::optional<api::QueryResponse> response =
        Account(*payload, &result.tally);
    if (response && OracleSampled(i) &&
        sampled_responses.size() < kOracleCap) {
      sampled_responses.emplace_back(i, std::move(*response));
    }
    if (rebind_every != 0 && i % rebind_every == rebind_every - 1) {
      double cpu = ThreadCpuSeconds();
      result.rebind_ms.push_back(stack->RebindToOther());
      result.generator_cpu_s -= ThreadCpuSeconds() - cpu;
    }
  }
  result.generator_cpu_s += ThreadCpuSeconds() - receiver_cpu_start;
  sender.join();
  result.generator_cpu_s += sender_cpu_s;
  if (send_error) std::rethrow_exception(send_error);
  result.tally.sent = sent;
  for (size_t r = 0, q = 0; r < sampled_responses.size(); ++r) {
    while (q < sampled_requests.size() &&
           sampled_requests[q].first < sampled_responses[r].first) {
      ++q;
    }
    if (q < sampled_requests.size() &&
        sampled_requests[q].first == sampled_responses[r].first) {
      result.tally.samples.emplace_back(std::move(sampled_requests[q].second),
                                        std::move(sampled_responses[r].second));
    }
  }
  return result;
}

}  // namespace osum::e2e
