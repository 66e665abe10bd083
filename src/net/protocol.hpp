// The MIDAS wire protocol (docs/NET.md).
//
// Length-prefixed binary frames over TCP, in the style of p4db's typed
// fixed-size message headers: every frame starts with a 24-byte header
// (magic, version, type, tenant, body length, msg_id) followed by a
// type-specific little-endian body. The msg_id echoes back on the reply,
// so one connection can pipeline many requests and match responses to
// futures out of order; the tenant id feeds the server's per-tenant quota
// accounting.
//
//   offset  size  field
//        0     4  magic      0x5344494D ("MIDS" as little-endian bytes)
//        4     2  version    kProtocolVersion
//        6     2  type       FrameType
//        8     4  tenant     caller-chosen tenant id (quota bucket)
//       12     4  body_len   bytes following the header (<= max_body)
//       16     8  msg_id     request id, echoed on the response
//
// Integers are little-endian at every width; doubles travel as the
// little-endian bytes of their IEEE-754 bit pattern; strings and vectors
// are a u32 count followed by their elements. Malformed input on either
// side raises ProtocolError — decoding never reads past the frame body.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "service/query.hpp"
#include "service/replay.hpp"

namespace midas::net {

inline constexpr std::uint32_t kMagic = 0x5344494Du;  // "MIDS"
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderSize = 24;
/// Default upper bound on a frame body. Large enough for any realistic
/// QuerySpec (weights for a multi-million-vertex scan); small enough that
/// a corrupt length field cannot make either side allocate the machine.
inline constexpr std::uint32_t kMaxBody = 1u << 26;  // 64 MiB

enum class FrameType : std::uint16_t {
  kQueryReq = 1,   // body: QuerySpec
  kQueryResp = 2,  // body: QueryResult
  kGraphReq = 3,   // body: GraphSpec (register a generated graph)
  kGraphResp = 4,  // empty body
  kPing = 5,       // empty body
  kPong = 6,       // empty body
  kError = 7,      // body: ErrorFrame; msg_id 0 = connection-level
};

[[nodiscard]] constexpr bool known_frame_type(std::uint16_t t) noexcept {
  return t >= 1 && t <= 7;
}

/// Typed error identity carried on kError frames. Codes 2..8 mirror the
/// service error taxonomy (service/query.hpp) one-to-one so the client
/// can re-throw the *same* typed exceptions a local DetectionService
/// would; the rest are wire-layer conditions.
enum class ErrorCode : std::uint16_t {
  kProtocol = 1,            // framing/decoding violation
  kOverload = 2,            // ServiceOverloadError (or per-conn backpressure)
  kDeadlineInfeasible = 3,  // DeadlineInfeasibleError
  kDeadlineExceeded = 4,    // DeadlineExceededError
  kCircuitOpen = 5,         // CircuitOpenError
  kUnknownGraph = 6,        // UnknownGraphError
  kValidation = 7,          // QueryValidationError
  kShutdown = 8,            // ServiceShutdownError
  kQuota = 9,               // per-tenant lane budget exhausted
  kInternal = 10,           // anything else server-side
};

// -- typed client/server-side errors ----------------------------------------

/// Base of every wire-layer failure.
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// The connection itself failed: refused, reset, closed with requests in
/// flight, write error. Distinct from every service error so replay-style
/// reports can separate "the wire failed" from "the engine failed".
class TransportError : public NetError {
 public:
  explicit TransportError(const std::string& what) : NetError(what) {}
};

/// The byte stream violated the framing rules (bad magic, wrong version,
/// oversized body, short body) — raised locally on decode failures and
/// remotely via ErrorCode::kProtocol frames.
class ProtocolError : public NetError {
 public:
  explicit ProtocolError(const std::string& what) : NetError(what) {}
};

/// The tenant's per-lane in-flight budget is exhausted. The query was
/// never admitted; back off and retry, or spread load across tenants.
class QuotaExceededError : public NetError {
 public:
  QuotaExceededError(std::uint32_t tenant, const std::string& lane,
                     std::uint64_t in_use, std::uint64_t budget)
      : NetError("tenant " + std::to_string(tenant) + " quota exceeded: " +
                 std::to_string(in_use) + "/" + std::to_string(budget) +
                 " in-flight on the " + lane + " lane"),
        tenant_(tenant),
        lane_(lane),
        in_use_(in_use),
        budget_(budget) {}
  [[nodiscard]] std::uint32_t tenant() const noexcept { return tenant_; }
  [[nodiscard]] const std::string& lane() const noexcept { return lane_; }
  [[nodiscard]] std::uint64_t in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }

 private:
  std::uint32_t tenant_;
  std::string lane_;
  std::uint64_t in_use_;
  std::uint64_t budget_;
};

/// A server-side failure with no richer client-side type (kInternal, or a
/// code this client version does not know). Carries the code verbatim.
class RemoteError : public NetError {
 public:
  RemoteError(ErrorCode code, const std::string& what)
      : NetError(what), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

// -- wire primitives --------------------------------------------------------

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint32_t tenant = 0;
  std::uint32_t body_len = 0;
  std::uint64_t msg_id = 0;
};

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i32(std::int32_t v) { le(static_cast<std::uint32_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    le(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  // One overload per QuerySpec field type (service::for_each_field):
  // enums travel as one byte, bools as 0/1, vectors as a count + elements.
  void put(bool v) { u8(v ? 1 : 0); }
  void put(std::int32_t v) { i32(v); }
  void put(std::uint32_t v) { u32(v); }
  void put(std::uint64_t v) { u64(v); }
  void put(double v) { f64(v); }
  void put(const std::string& s) { str(s); }
  template <service::NamedEnum E>
  void put(E e) { u8(static_cast<std::uint8_t>(e)); }
  template <typename A, typename B>
  void put(const std::pair<A, B>& p) { put(p.first), put(p.second); }
  template <typename T>
  void put(const std::vector<T>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) put(x);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over one frame body. Every read
/// past the end throws ProtocolError — a corrupt length can never make
/// the decoder touch bytes of the next frame.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint16_t u16() { return le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return le<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(le<std::uint32_t>());
  }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = le<std::uint64_t>();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  /// A u32 element count, validated against the bytes actually remaining
  /// (each element >= min_elem_bytes) before any allocation happens.
  [[nodiscard]] std::uint32_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    if (min_elem_bytes > 0 && n > (size_ - off_) / min_elem_bytes)
      throw ProtocolError("element count " + std::to_string(n) +
                          " exceeds remaining frame bytes");
    return n;
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - off_;
  }

  // The inverse of each WireWriter::put overload. An enum byte outside
  // its name array throws ProtocolError.
  void get(bool& v) { v = u8() != 0; }
  void get(std::int32_t& v) { v = i32(); }
  void get(std::uint32_t& v) { v = u32(); }
  void get(std::uint64_t& v) { v = u64(); }
  void get(double& v) { v = f64(); }
  void get(std::string& s) { s = str(); }
  template <service::NamedEnum E>
  void get(E& e) {
    const std::uint8_t v = u8();
    if (v >= service::enum_names(e).size())
      throw ProtocolError("enum byte " + std::to_string(v) +
                          " is not one of " + service::enum_choices<E>());
    e = static_cast<E>(v);
  }
  template <typename A, typename B>
  void get(std::pair<A, B>& p) { get(p.first), get(p.second); }
  /// Elements are fixed-width integers or pairs of them: sizeof(T) is
  /// each element's wire size.
  template <typename T>
  void get(std::vector<T>& v) {
    v.resize(count(sizeof(T)));
    for (T& x : v) get(x);
  }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (n > size_ - off_)
      throw ProtocolError("frame body underrun: need " + std::to_string(n) +
                          " bytes, have " + std::to_string(size_ - off_));
    const std::uint8_t* p = data_ + off_;
    off_ += n;
    return p;
  }
  template <typename T>
  [[nodiscard]] T le() {
    const std::uint8_t* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

// -- header + frame assembly ------------------------------------------------

void encode_header(std::uint8_t* dst, const FrameHeader& h) noexcept;
/// Decode without validation (validate_header judges the result).
[[nodiscard]] FrameHeader decode_header(const std::uint8_t* src) noexcept;
/// Throws ProtocolError on bad magic, unsupported version, or an
/// oversized body length. Unknown frame *types* pass — the receiver
/// answers those with a typed error instead of killing the stream.
void validate_header(const FrameHeader& h, std::size_t max_body);

/// One contiguous ready-to-send frame: header + body.
[[nodiscard]] std::vector<std::uint8_t> make_frame(
    FrameType type, std::uint64_t msg_id, std::uint32_t tenant,
    const std::vector<std::uint8_t>& body);

// -- typed bodies -----------------------------------------------------------

/// Error frame body: the code, the server-side message, and three integer
/// plus two string auxiliary slots whose meaning is per-code (docs/NET.md)
/// — enough to reconstruct every typed service error client-side.
struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::uint64_t a = 0, b = 0, c = 0;
  std::string s1, s2;
};

void encode_error(WireWriter& w, const ErrorFrame& e);
[[nodiscard]] ErrorFrame decode_error(WireReader& r);
/// Rebuild the typed exception an ErrorFrame describes and throw it:
/// service errors come back as their real types (ServiceOverloadError
/// with depths, QueryValidationError with the field, ...), wire errors as
/// ProtocolError / QuotaExceededError, the rest as RemoteError.
[[noreturn]] void throw_error(const ErrorFrame& e);

void encode_query(WireWriter& w, const service::QuerySpec& q);
[[nodiscard]] service::QuerySpec decode_query(WireReader& r);

void encode_result(WireWriter& w, const service::QueryResult& res);
[[nodiscard]] service::QueryResult decode_result(WireReader& r);

void encode_graph_spec(WireWriter& w, const service::GraphSpec& g);
[[nodiscard]] service::GraphSpec decode_graph_spec(WireReader& r);

}  // namespace midas::net
