#include "ccpred/serve/wire.hpp"

#include <cstring>

#include "ccpred/common/error.hpp"

namespace ccpred::serve::wire {
namespace {

/// Appends little-endian primitives to a growing frame.
struct Writer {
  std::string& out;

  void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void put(std::uint64_t v) { u64(v); }
  void put(double v) { f64(v); }
  void put(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    CCPRED_CHECK_MSG(s.size() <= kMaxStringBytes,
                     "wire: string field of " << s.size()
                                              << " bytes exceeds the cap");
    u32(static_cast<std::uint32_t>(s.size()));
    out.append(s);
  }
};

/// Bounds-checked little-endian reads over one frame payload. Every read
/// throws instead of running past the declared payload, so a hostile
/// length prefix can never make the decoder touch adjacent memory.
struct Reader {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    CCPRED_CHECK_MSG(size - pos >= n,
                     "wire: truncated record (need " << n << " bytes, have "
                                                     << size - pos << ")");
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(data[pos++]) << (8 * i);
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  void get(std::uint64_t& v) { v = u64(); }
  void get(double& v) { v = f64(); }
  void get(bool& v) { v = u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    CCPRED_CHECK_MSG(n <= kMaxStringBytes,
                     "wire: string length " << n << " exceeds the cap");
    need(n);
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
};

void write_header(Writer& w, FrameKind kind, std::size_t count,
                  std::size_t payload_bytes) {
  CCPRED_CHECK_MSG(count <= kMaxFrameRecords,
                   "wire: " << count << " records exceed the frame cap");
  CCPRED_CHECK_MSG(payload_bytes <= kMaxFramePayload,
                   "wire: payload of " << payload_bytes
                                       << " bytes exceeds the frame cap");
  for (const unsigned char m : kMagic) w.u8(m);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u16(static_cast<std::uint16_t>(count));
  w.u32(static_cast<std::uint32_t>(payload_bytes));
}

void encode_request(Writer& w, const Request& r) {
  w.u8(static_cast<std::uint8_t>(r.op));
  w.str(r.id);
  w.str(r.machine);
  w.str(r.model);
  w.i32(r.o);
  w.i32(r.v);
  w.i32(r.nodes);
  w.i32(r.tile);
  w.f64(r.max_node_hours);
  w.i32(r.deadline_ms);
  CCPRED_CHECK_MSG(r.wall_times.size() <= kMaxReportBatch,
                   "wire: wall-time batch exceeds " << kMaxReportBatch);
  w.u16(static_cast<std::uint16_t>(r.wall_times.size()));
  for (const double wall : r.wall_times) w.f64(wall);
}

Request decode_request(Reader& rd) {
  Request r;
  const std::uint8_t op = rd.u8();
  CCPRED_CHECK_MSG(op < kNumOps, "wire: invalid op byte "
                                     << static_cast<int>(op));
  r.op = static_cast<Op>(op);
  r.id = rd.str();
  r.machine = rd.str();
  r.model = rd.str();
  r.o = rd.i32();
  r.v = rd.i32();
  r.nodes = rd.i32();
  r.tile = rd.i32();
  r.max_node_hours = rd.f64();
  r.deadline_ms = rd.i32();
  const std::uint16_t walls = rd.u16();
  // Cap enforced before allocating: a hostile count cannot reserve memory.
  CCPRED_CHECK_MSG(walls <= kMaxReportBatch,
                   "wire: wall-time batch of " << walls << " exceeds "
                                               << kMaxReportBatch);
  r.wall_times.reserve(walls);
  for (std::uint16_t i = 0; i < walls; ++i) r.wall_times.push_back(rd.f64());
  validate_request(r);  // same semantic gate as the JSON parse boundary
  return r;
}

// Response flag bits.
constexpr std::uint8_t kFlagOk = 1u << 0;
constexpr std::uint8_t kFlagStale = 1u << 1;
constexpr std::uint8_t kFlagRecommendation = 1u << 2;
constexpr std::uint8_t kFlagJob = 1u << 3;
constexpr std::uint8_t kFlagReport = 1u << 4;
constexpr std::uint8_t kFlagStats = 1u << 5;
constexpr std::uint8_t kFlagCacheHit = 1u << 6;
constexpr std::uint8_t kFlagDrift = 1u << 7;

/// Stats in the schema's encoding order (stats.hpp), each field as the
/// wire primitive of its type.
void encode_stats(Writer& w, const ServerStats& s) {
  for_each_value(
      [&w](Group, std::size_t, const StatsField&, auto v) { w.put(v); }, s);
}

void decode_stats(Reader& rd, ServerStats* s) {
  for_each_value(
      [&rd](Group, std::size_t, const StatsField&, auto& v) { rd.get(v); },
      *s);
}

void encode_response(Writer& w, const Response& r) {
  std::uint8_t flags = 0;
  if (r.ok) flags |= kFlagOk;
  if (r.stale) flags |= kFlagStale;
  if (r.has_recommendation) flags |= kFlagRecommendation;
  if (r.has_job) flags |= kFlagJob;
  if (r.has_report) flags |= kFlagReport;
  if (r.has_stats) flags |= kFlagStats;
  if (r.cache_hit) flags |= kFlagCacheHit;
  if (r.drifting) flags |= kFlagDrift;
  w.u8(flags);
  w.str(r.op);
  w.str(r.id);
  w.str(r.error);
  w.str(r.code);
  if (r.has_recommendation) {
    w.i32(r.nodes);
    w.i32(r.tile);
    w.f64(r.time_s);
    w.f64(r.node_hours);
    w.u64(r.model_version);
    w.u64(r.sweep_size);
  }
  if (r.has_job) {
    w.i32(r.iterations);
    w.f64(r.setup_s);
    w.f64(r.iteration_s);
    w.f64(r.total_s);
    w.f64(r.node_hours);
  }
  if (r.has_report) {
    w.u64(r.accepted);
    w.u64(r.duplicates);
    w.u64(r.buffered);
    w.f64(r.rolling_mape);
    w.u8(r.refit_scheduled ? 1 : 0);
    w.u64(r.model_version);
  }
  if (r.has_stats) encode_stats(w, r.stats);
}

Response decode_response(Reader& rd) {
  Response r;
  const std::uint8_t flags = rd.u8();
  r.ok = (flags & kFlagOk) != 0;
  r.stale = (flags & kFlagStale) != 0;
  r.has_recommendation = (flags & kFlagRecommendation) != 0;
  r.has_job = (flags & kFlagJob) != 0;
  r.has_report = (flags & kFlagReport) != 0;
  r.has_stats = (flags & kFlagStats) != 0;
  r.cache_hit = (flags & kFlagCacheHit) != 0;
  r.drifting = (flags & kFlagDrift) != 0;
  r.op = rd.str();
  r.id = rd.str();
  r.error = rd.str();
  r.code = rd.str();
  if (r.has_recommendation) {
    r.nodes = rd.i32();
    r.tile = rd.i32();
    r.time_s = rd.f64();
    r.node_hours = rd.f64();
    r.model_version = rd.u64();
    r.sweep_size = static_cast<std::size_t>(rd.u64());
  }
  if (r.has_job) {
    r.iterations = rd.i32();
    r.setup_s = rd.f64();
    r.iteration_s = rd.f64();
    r.total_s = rd.f64();
    r.node_hours = rd.f64();
  }
  if (r.has_report) {
    r.accepted = static_cast<std::size_t>(rd.u64());
    r.duplicates = static_cast<std::size_t>(rd.u64());
    r.buffered = static_cast<std::size_t>(rd.u64());
    r.rolling_mape = rd.f64();
    r.refit_scheduled = rd.u8() != 0;
    r.model_version = rd.u64();
  }
  if (r.has_stats) decode_stats(rd, &r.stats);
  return r;
}

template <typename Record, typename EncodeFn>
std::string encode_frame(FrameKind kind, const std::vector<Record>& records,
                         EncodeFn&& encode_one) {
  std::string payload;
  Writer pw{payload};
  for (const Record& rec : records) encode_one(pw, rec);
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  Writer fw{frame};
  write_header(fw, kind, records.size(), payload.size());
  frame.append(payload);
  return frame;
}

void check_kind(const FrameHeader& header, FrameKind want) {
  CCPRED_CHECK_MSG(header.kind == want,
                   "wire: expected a "
                       << (want == FrameKind::kRequest ? "request" : "response")
                       << " frame");
}

}  // namespace

bool starts_frame(unsigned char first) { return first == kMagic[0]; }

FrameStatus probe_frame(const unsigned char* data, std::size_t size,
                        FrameHeader* header, std::string* error) {
  const auto bad = [&](const std::string& why) {
    if (error != nullptr) *error = "wire: " + why;
    return FrameStatus::kBad;
  };
  for (std::size_t i = 0; i < size && i < 4; ++i) {
    if (data[i] != kMagic[i]) return bad("bad frame magic");
  }
  if (size >= 5 && data[4] != kVersion) {
    return bad("unsupported frame version " + std::to_string(data[4]));
  }
  if (size >= 6 && data[5] > static_cast<std::uint8_t>(FrameKind::kResponse)) {
    return bad("unknown frame kind " + std::to_string(data[5]));
  }
  if (size < kHeaderBytes) return FrameStatus::kNeedMore;

  FrameHeader h;
  h.version = data[4];
  h.kind = static_cast<FrameKind>(data[5]);
  h.count = static_cast<std::uint16_t>(data[6]) |
            static_cast<std::uint16_t>(data[7]) << 8;
  h.payload_bytes = static_cast<std::uint32_t>(data[8]) |
                    static_cast<std::uint32_t>(data[9]) << 8 |
                    static_cast<std::uint32_t>(data[10]) << 16 |
                    static_cast<std::uint32_t>(data[11]) << 24;
  if (h.count > kMaxFrameRecords) {
    return bad("frame declares " + std::to_string(h.count) + " records (cap " +
               std::to_string(kMaxFrameRecords) + ")");
  }
  if (h.payload_bytes > kMaxFramePayload) {
    return bad("frame declares a " + std::to_string(h.payload_bytes) +
               "-byte payload (cap " + std::to_string(kMaxFramePayload) + ")");
  }
  if (h.count > 0 && h.payload_bytes == 0) {
    return bad("frame declares records but no payload");
  }
  if (header != nullptr) *header = h;
  return FrameStatus::kHeader;
}

std::string encode_request_frame(const std::vector<Request>& requests) {
  return encode_frame(FrameKind::kRequest, requests,
                      [](Writer& w, const Request& r) { encode_request(w, r); });
}

std::string encode_response_frame(const std::vector<Response>& responses) {
  return encode_frame(
      FrameKind::kResponse, responses,
      [](Writer& w, const Response& r) { encode_response(w, r); });
}

std::vector<Request> decode_request_frame(const FrameHeader& header,
                                          const unsigned char* payload) {
  check_kind(header, FrameKind::kRequest);
  Reader rd{payload, header.payload_bytes};
  std::vector<Request> out;
  out.reserve(header.count);
  for (std::uint16_t i = 0; i < header.count; ++i) {
    out.push_back(decode_request(rd));
  }
  CCPRED_CHECK_MSG(rd.pos == rd.size, "wire: " << rd.size - rd.pos
                                               << " trailing payload bytes");
  return out;
}

std::vector<Response> decode_response_frame(const FrameHeader& header,
                                            const unsigned char* payload) {
  check_kind(header, FrameKind::kResponse);
  Reader rd{payload, header.payload_bytes};
  std::vector<Response> out;
  out.reserve(header.count);
  for (std::uint16_t i = 0; i < header.count; ++i) {
    out.push_back(decode_response(rd));
  }
  CCPRED_CHECK_MSG(rd.pos == rd.size, "wire: " << rd.size - rd.pos
                                               << " trailing payload bytes");
  return out;
}

}  // namespace ccpred::serve::wire
