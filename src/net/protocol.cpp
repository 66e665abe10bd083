#include "net/protocol.hpp"

#include <cstdio>

namespace midas::net {

void encode_header(std::uint8_t* dst, const FrameHeader& h) noexcept {
  auto le = [&dst](auto v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      *dst++ = static_cast<std::uint8_t>(v >> (8 * i));
  };
  le(h.magic, 4);
  le(h.version, 2);
  le(h.type, 2);
  le(h.tenant, 4);
  le(h.body_len, 4);
  le(h.msg_id, 8);
}

FrameHeader decode_header(const std::uint8_t* src) noexcept {
  auto le = [&src](std::size_t n) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(*src++) << (8 * i);
    return v;
  };
  FrameHeader h;
  h.magic = static_cast<std::uint32_t>(le(4));
  h.version = static_cast<std::uint16_t>(le(2));
  h.type = static_cast<std::uint16_t>(le(2));
  h.tenant = static_cast<std::uint32_t>(le(4));
  h.body_len = static_cast<std::uint32_t>(le(4));
  h.msg_id = le(8);
  return h;
}

void validate_header(const FrameHeader& h, std::size_t max_body) {
  if (h.magic != kMagic)
    throw ProtocolError("bad frame magic 0x" + [](std::uint32_t m) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x", m);
      return std::string(buf);
    }(h.magic));
  if (h.version != kProtocolVersion)
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(h.version) + " (expected " +
                        std::to_string(kProtocolVersion) + ")");
  if (h.body_len > max_body)
    throw ProtocolError("frame body length " + std::to_string(h.body_len) +
                        " exceeds the " + std::to_string(max_body) +
                        "-byte limit");
}

std::vector<std::uint8_t> make_frame(FrameType type, std::uint64_t msg_id,
                                     std::uint32_t tenant,
                                     const std::vector<std::uint8_t>& body) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(type);
  h.tenant = tenant;
  h.body_len = static_cast<std::uint32_t>(body.size());
  h.msg_id = msg_id;
  std::vector<std::uint8_t> frame(kHeaderSize + body.size());
  encode_header(frame.data(), h);
  if (!body.empty())
    std::memcpy(frame.data() + kHeaderSize, body.data(), body.size());
  return frame;
}

// -- error frames -----------------------------------------------------------

void encode_error(WireWriter& w, const ErrorFrame& e) {
  w.u16(static_cast<std::uint16_t>(e.code));
  w.str(e.message);
  w.u64(e.a);
  w.u64(e.b);
  w.u64(e.c);
  w.str(e.s1);
  w.str(e.s2);
}

ErrorFrame decode_error(WireReader& r) {
  ErrorFrame e;
  e.code = static_cast<ErrorCode>(r.u16());
  e.message = r.str();
  e.a = r.u64();
  e.b = r.u64();
  e.c = r.u64();
  e.s1 = r.str();
  e.s2 = r.str();
  return e;
}

namespace {

[[nodiscard]] double bits_to_double(std::uint64_t bits) noexcept {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

void throw_error(const ErrorFrame& e) {
  switch (e.code) {
    case ErrorCode::kProtocol:
      throw ProtocolError(e.message);
    case ErrorCode::kOverload:
      // a = interactive depth, b = batch depth, c = capacity,
      // s1 = shed policy, s2 = lane.
      throw service::ServiceOverloadError(e.s2, e.a, e.b, e.c, e.s1);
    case ErrorCode::kDeadlineInfeasible:
      // a = eta seconds (bits), b = budget seconds (bits).
      throw service::DeadlineInfeasibleError(bits_to_double(e.a),
                                             bits_to_double(e.b));
    case ErrorCode::kDeadlineExceeded:
      throw service::DeadlineExceededError();
    case ErrorCode::kCircuitOpen:
      // a = retry-after seconds (bits), s1 = graph name.
      throw service::CircuitOpenError(e.s1, bits_to_double(e.a));
    case ErrorCode::kUnknownGraph:
      // s1 = graph name.
      throw service::UnknownGraphError(e.s1);
    case ErrorCode::kValidation:
      // s1 = offending field, s2 = field-level message.
      throw service::QueryValidationError(e.s1, e.s2);
    case ErrorCode::kShutdown:
      throw service::ServiceShutdownError();
    case ErrorCode::kQuota:
      // a = in-flight, b = budget, c = tenant, s1 = lane.
      throw QuotaExceededError(static_cast<std::uint32_t>(e.c), e.s1, e.a,
                               e.b);
    case ErrorCode::kInternal:
      break;
  }
  throw RemoteError(e.code, e.message);
}

// -- query specs ------------------------------------------------------------

void encode_query(WireWriter& w, const service::QuerySpec& q) {
  service::for_each_field(
      q, [&w](const char*, const auto& v, service::FieldKind) { w.put(v); });
}

service::QuerySpec decode_query(WireReader& r) {
  service::QuerySpec q;
  service::for_each_field(
      q, [&r](const char*, auto& v, service::FieldKind) { r.get(v); });
  return q;
}

// -- query results ----------------------------------------------------------

void encode_result(WireWriter& w, const service::QueryResult& res) {
  w.u8(res.found ? 1 : 0);
  w.i32(res.rounds_run);
  w.i32(res.found_round);
  w.i32(res.table.k);
  w.u32(res.table.max_weight);
  w.u32(static_cast<std::uint32_t>(res.table.feasible.size()));
  for (const auto& row : res.table.feasible) {
    w.u32(static_cast<std::uint32_t>(row.size()));
    for (bool bit : row) w.u8(bit ? 1 : 0);
  }
  w.f64(res.vtime);
  w.f64(res.engine_wall_s);
  w.f64(res.queue_s);
  w.f64(res.total_s);
  w.i32(res.attempts);
  w.u8(res.hedge_won ? 1 : 0);
  w.f64(res.target_epsilon);
  w.f64(res.achieved_epsilon);
  w.i32(res.reamp_rounds);
  w.u8(res.certified ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(res.witness.size()));
  for (graph::VertexId v : res.witness) w.u32(v);
  w.i32(res.witness_j);
  w.u32(res.witness_z);
}

service::QueryResult decode_result(WireReader& r) {
  service::QueryResult res;
  res.found = r.u8() != 0;
  res.rounds_run = r.i32();
  res.found_round = r.i32();
  res.table.k = r.i32();
  res.table.max_weight = r.u32();
  const std::uint32_t rows = r.count(4);
  res.table.feasible.resize(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    const std::uint32_t cols = r.count(1);
    auto& row = res.table.feasible[i];
    row.resize(cols);
    for (std::uint32_t j = 0; j < cols; ++j) row[j] = r.u8() != 0;
  }
  res.vtime = r.f64();
  res.engine_wall_s = r.f64();
  res.queue_s = r.f64();
  res.total_s = r.f64();
  res.attempts = r.i32();
  res.hedge_won = r.u8() != 0;
  res.target_epsilon = r.f64();
  res.achieved_epsilon = r.f64();
  res.reamp_rounds = r.i32();
  res.certified = r.u8() != 0;
  const std::uint32_t n_witness = r.count(4);
  res.witness.reserve(n_witness);
  for (std::uint32_t i = 0; i < n_witness; ++i) res.witness.push_back(r.u32());
  res.witness_j = r.i32();
  res.witness_z = r.u32();
  return res;
}

// -- graph specs ------------------------------------------------------------

void encode_graph_spec(WireWriter& w, const service::GraphSpec& g) {
  w.str(g.name);
  w.str(g.kind);
  w.u32(g.n);
  w.f64(g.fparam);
  w.u32(g.attach);
  w.u64(g.seed);
}

service::GraphSpec decode_graph_spec(WireReader& r) {
  service::GraphSpec g;
  g.name = r.str();
  g.kind = r.str();
  g.n = r.u32();
  g.fparam = r.f64();
  g.attach = r.u32();
  g.seed = r.u64();
  return g;
}

}  // namespace midas::net
