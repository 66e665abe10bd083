// The binary RPC wire (src/net, docs/NET.md): codec round-trips, the
// frame-corruption table (a corrupt stream must produce a typed protocol
// error or a clean close, never a read past the frame), bit-identical
// answers over TCP vs in-process, pipelining, backpressure, tenant
// quotas, and the chaos cases (client killed mid-query, half-written
// frames, connect floods). Runs under the TSan/ASan labels: the server's
// loop thread, completer pool, and client reader threads all race here on
// purpose.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace midas;
using service::DetectionService;
using service::Lane;
using service::QueryResult;
using service::QuerySpec;
using service::QueryType;
using service::ServiceOptions;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

ServiceOptions small_service() {
  ServiceOptions o;
  o.workers = 2;
  o.queue_capacity = 64;
  return o;
}

QuerySpec path_query(const std::string& graph, std::uint64_t seed = 3) {
  QuerySpec q;
  q.type = QueryType::kPath;
  q.lane = Lane::kInteractive;
  q.graph = graph;
  q.k = 3;
  q.max_rounds = 2;
  q.seed = seed;
  return q;
}

service::GraphSpec demo_graph(const std::string& name) {
  service::GraphSpec g;
  g.name = name;
  g.kind = "gnp";
  g.n = 40;
  g.fparam = 0.15;
  g.seed = 7;
  return g;
}

/// Execution gate: before_execute blocks queries carrying kGateSeed until
/// release(), so tests can hold a query in flight at a known point.
constexpr std::uint64_t kGateSeed = 0xB10CULL;
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  int waiting = 0;

  void maybe_block(const QuerySpec& q) {
    if (q.seed != kGateSeed) return;
    std::unique_lock<std::mutex> lk(m);
    ++waiting;
    cv.notify_all();
    cv.wait(lk, [&] { return open; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(m);
    open = true;
    cv.notify_all();
  }
  bool await_waiter(double timeout_s = 10.0) {
    std::unique_lock<std::mutex> lk(m);
    return cv.wait_for(lk, std::chrono::duration<double>(timeout_s),
                       [&] { return waiting > 0; });
  }
};

// Raw-socket plumbing for the corruption/chaos tests: hand-crafted bytes,
// no net::Client in the way.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Read exactly n bytes with a poll timeout. Returns the bytes read
/// (n on success, less on EOF/timeout).
std::size_t recv_exact(int fd, std::uint8_t* dst, std::size_t n,
                       int timeout_ms = 5000) {
  std::size_t got = 0;
  while (got < n) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) break;
    const ssize_t r = ::recv(fd, dst + got, n - got, 0);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

struct RawFrame {
  net::FrameHeader h;
  std::vector<std::uint8_t> body;
};

bool recv_frame(int fd, RawFrame& out, int timeout_ms = 5000) {
  std::uint8_t hdr[net::kHeaderSize];
  if (recv_exact(fd, hdr, net::kHeaderSize, timeout_ms) != net::kHeaderSize)
    return false;
  out.h = net::decode_header(hdr);
  if (out.h.body_len > net::kMaxBody) return false;
  out.body.resize(out.h.body_len);
  return recv_exact(fd, out.body.data(), out.body.size(), timeout_ms) ==
         out.body.size();
}

/// True when the peer closes cleanly (EOF) within the timeout.
bool expect_eof(int fd, int timeout_ms = 5000) {
  std::uint8_t b = 0;
  return recv_exact(fd, &b, 1, timeout_ms) == 0;
}

net::ErrorFrame decode_error_body(const RawFrame& f) {
  net::WireReader r(f.body.data(), f.body.size());
  return net::decode_error(r);
}

std::vector<std::uint8_t> ping_frame(std::uint64_t msg_id) {
  return net::make_frame(net::FrameType::kPing, msg_id, 0, {});
}

/// Ping over a raw socket: proves the connection (and the server) is
/// still serving after whatever abuse came before.
::testing::AssertionResult raw_ping_ok(int fd, std::uint64_t msg_id) {
  const auto ping = ping_frame(msg_id);
  if (!send_all(fd, ping.data(), ping.size()))
    return ::testing::AssertionFailure() << "ping write failed";
  RawFrame resp;
  if (!recv_frame(fd, resp))
    return ::testing::AssertionFailure() << "no pong frame";
  if (resp.h.type != static_cast<std::uint16_t>(net::FrameType::kPong))
    return ::testing::AssertionFailure()
           << "expected pong, got type " << resp.h.type;
  if (resp.h.msg_id != msg_id)
    return ::testing::AssertionFailure()
           << "pong msg_id " << resp.h.msg_id << " != " << msg_id;
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Protocol: codecs and bounds
// ---------------------------------------------------------------------------

TEST(NetProtocol, HeaderRoundTrip) {
  net::FrameHeader h;
  h.type = static_cast<std::uint16_t>(net::FrameType::kQueryReq);
  h.tenant = 42;
  h.body_len = 123;
  h.msg_id = 0xDEADBEEFCAFEULL;
  std::uint8_t buf[net::kHeaderSize];
  net::encode_header(buf, h);
  const net::FrameHeader d = net::decode_header(buf);
  EXPECT_EQ(d.magic, net::kMagic);
  EXPECT_EQ(d.version, net::kProtocolVersion);
  EXPECT_EQ(d.type, h.type);
  EXPECT_EQ(d.tenant, 42u);
  EXPECT_EQ(d.body_len, 123u);
  EXPECT_EQ(d.msg_id, h.msg_id);
  EXPECT_NO_THROW(net::validate_header(d, net::kMaxBody));
}

TEST(NetProtocol, HeaderValidationRejectsCorruption) {
  net::FrameHeader h;
  h.type = static_cast<std::uint16_t>(net::FrameType::kPing);

  net::FrameHeader bad = h;
  bad.magic = 0xDEADDEADu;
  EXPECT_THROW(net::validate_header(bad, net::kMaxBody), net::ProtocolError);

  bad = h;
  bad.version = 9;
  EXPECT_THROW(net::validate_header(bad, net::kMaxBody), net::ProtocolError);

  bad = h;
  bad.body_len = net::kMaxBody + 1;
  EXPECT_THROW(net::validate_header(bad, net::kMaxBody), net::ProtocolError);

  // Unknown frame *types* pass validation: the receiver answers them with
  // a typed error instead of killing the stream.
  bad = h;
  bad.type = 99;
  EXPECT_NO_THROW(net::validate_header(bad, net::kMaxBody));
}

/// Fill one field with random bits of its type (any enum in range).
template <typename T>
void randomize(T& v, Xoshiro256& rng) {
  if constexpr (std::is_same_v<T, bool>) {
    v = (rng() & 1) != 0;
  } else if constexpr (service::NamedEnum<T>) {
    v = static_cast<T>(rng() % service::enum_names(v).size());
  } else if constexpr (std::is_same_v<T, double>) {
    v = std::bit_cast<double>(rng());  // NaNs and infinities included
  } else if constexpr (std::is_arithmetic_v<T>) {
    v = static_cast<T>(rng());
  } else if constexpr (requires { v.first; }) {
    randomize(v.first, rng);
    randomize(v.second, rng);
  } else {
    v.resize(rng() % 24);
    for (auto& x : v) randomize(x, rng);
  }
}

/// Bitwise equality per field (so NaN payloads compare equal).
template <typename T>
bool same_field(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, double>)
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  else
    return a == b;
}

TEST(NetProtocol, QueryCodecRoundTrip) {
  QuerySpec q;
  q.type = QueryType::kTree;
  q.lane = Lane::kBatch;
  q.graph = "social";
  q.k = 5;
  q.field_bits = 12;
  q.epsilon = 0.01;
  q.seed = 77;
  q.max_rounds = 9;
  q.early_exit = false;
  q.kernel = core::Kernel::kBitsliced;
  q.n_ranks = 4;
  q.n1 = 2;
  q.n2 = 32;
  q.tree_edges = {{0, 1}, {1, 2}, {1, 3}, {3, 4}};
  q.tree_root = 1;
  q.weights = {3, 1, 4, 1, 5};
  q.certify = true;
  q.reamplify = true;
  q.timeout_s = 2.5;

  net::WireWriter w;
  net::encode_query(w, q);
  const auto bytes = w.bytes();
  net::WireReader r(bytes.data(), bytes.size());
  const QuerySpec d = net::decode_query(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(service::query_fingerprint(d), service::query_fingerprint(q));
  EXPECT_EQ(d.lane, q.lane);
  EXPECT_EQ(d.tree_edges, q.tree_edges);
  EXPECT_EQ(d.weights, q.weights);
  EXPECT_DOUBLE_EQ(d.timeout_s, q.timeout_s);
  EXPECT_TRUE(d.certify);
  EXPECT_TRUE(d.reamplify);

  // Seeded random specs, every field drawn through the table: each field
  // decodes equal, and re-encoding gives the identical bytes.
  Xoshiro256 rng(0x5EC5);
  for (int trial = 0; trial < 256; ++trial) {
    QuerySpec spec;
    service::for_each_field(spec, [&rng](const char*, auto& v, auto) {
      randomize(v, rng);
    });
    net::WireWriter out;
    net::encode_query(out, spec);
    net::WireReader in(out.bytes().data(), out.bytes().size());
    const QuerySpec back = net::decode_query(in);
    EXPECT_EQ(in.remaining(), 0u);
    service::for_each_field(spec, [&](const char* key, const auto& a, auto) {
      service::for_each_field(back, [&](const char* k2, const auto& b, auto) {
        if constexpr (std::is_same_v<decltype(a), decltype(b)>) {
          if (std::string_view(key) == k2) {
            EXPECT_TRUE(same_field(a, b)) << key << " trial " << trial;
          }
        }
      });
    });
    net::WireWriter again;
    net::encode_query(again, back);
    EXPECT_EQ(again.bytes(), out.bytes()) << "trial " << trial;
  }
}

TEST(NetProtocol, MotifQueryCodecRoundTrip) {
  QuerySpec q;
  q.type = QueryType::kMotif;
  q.lane = Lane::kBatch;
  q.graph = "colored";
  q.k = 4;
  q.field_bits = 8;
  q.seed = 99;
  q.max_rounds = 3;
  q.colors = {0, 1, 2, 0, 1, 2, 0, 1};
  q.motif = {0, 0, 1, 2};

  net::WireWriter w;
  net::encode_query(w, q);
  const auto bytes = w.bytes();
  net::WireReader r(bytes.data(), bytes.size());
  const QuerySpec d = net::decode_query(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(d.type, QueryType::kMotif);
  EXPECT_EQ(d.colors, q.colors);
  EXPECT_EQ(d.motif, q.motif);
  EXPECT_EQ(service::query_fingerprint(d), service::query_fingerprint(q));
}

TEST(NetProtocol, ResultCodecRoundTrip) {
  QueryResult res;
  res.found = true;
  res.rounds_run = 7;
  res.found_round = 3;
  res.achieved_epsilon = 0.8 * 0.8;
  res.target_epsilon = 0.05;
  res.reamp_rounds = 2;
  res.certified = true;
  res.witness = {4, 9, 16};
  res.witness_j = 2;
  res.witness_z = 5;
  res.vtime = 1.25;
  res.engine_wall_s = 0.5;
  res.queue_s = 0.125;
  res.total_s = 0.75;
  res.attempts = 2;
  res.hedge_won = true;
  res.table.k = 2;
  res.table.max_weight = 3;
  res.table.feasible = {{false, false, false, false},
                        {false, true, false, true},
                        {true, false, true, false}};

  net::WireWriter w;
  net::encode_result(w, res);
  const auto bytes = w.bytes();
  net::WireReader r(bytes.data(), bytes.size());
  const QueryResult d = net::decode_result(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(d.found, res.found);
  EXPECT_EQ(d.rounds_run, res.rounds_run);
  EXPECT_EQ(d.found_round, res.found_round);
  EXPECT_DOUBLE_EQ(d.achieved_epsilon, res.achieved_epsilon);
  EXPECT_DOUBLE_EQ(d.target_epsilon, res.target_epsilon);
  EXPECT_EQ(d.reamp_rounds, res.reamp_rounds);
  EXPECT_EQ(d.certified, res.certified);
  EXPECT_EQ(d.witness, res.witness);
  EXPECT_EQ(d.witness_j, res.witness_j);
  EXPECT_EQ(d.witness_z, res.witness_z);
  EXPECT_EQ(d.attempts, res.attempts);
  EXPECT_EQ(d.hedge_won, res.hedge_won);
  EXPECT_EQ(d.table.k, res.table.k);
  EXPECT_EQ(d.table.max_weight, res.table.max_weight);
  EXPECT_EQ(d.table.feasible, res.table.feasible);
}

TEST(NetProtocol, ErrorFramesRebuildTypedExceptions) {
  {
    net::ErrorFrame e;
    e.code = net::ErrorCode::kOverload;
    e.message = "m";
    e.a = 3;
    e.b = 9;
    e.c = 16;
    e.s1 = "none";
    e.s2 = "interactive";
    try {
      net::throw_error(e);
      FAIL() << "throw_error returned";
    } catch (const service::ServiceOverloadError& ex) {
      EXPECT_EQ(ex.interactive_depth(), 3u);
      EXPECT_EQ(ex.batch_depth(), 9u);
      EXPECT_EQ(ex.capacity(), 16u);
      EXPECT_EQ(ex.shed_policy(), "none");
    }
  }
  {
    net::ErrorFrame e;
    e.code = net::ErrorCode::kUnknownGraph;
    e.s1 = "nope";
    try {
      net::throw_error(e);
      FAIL() << "throw_error returned";
    } catch (const service::UnknownGraphError& ex) {
      EXPECT_STREQ(ex.what(), "unknown graph: nope");
    }
  }
  {
    net::ErrorFrame e;
    e.code = net::ErrorCode::kValidation;
    e.s1 = "epsilon";
    e.s2 = "must lie in (0, 1)";
    try {
      net::throw_error(e);
      FAIL() << "throw_error returned";
    } catch (const service::QueryValidationError& ex) {
      EXPECT_EQ(ex.field(), "epsilon");
      EXPECT_STREQ(ex.what(), "invalid query: epsilon: must lie in (0, 1)");
    }
  }
  {
    net::ErrorFrame e;
    e.code = net::ErrorCode::kQuota;
    e.a = 4;
    e.b = 4;
    e.c = 17;
    e.s1 = "batch";
    try {
      net::throw_error(e);
      FAIL() << "throw_error returned";
    } catch (const net::QuotaExceededError& ex) {
      EXPECT_EQ(ex.tenant(), 17u);
      EXPECT_EQ(ex.lane(), "batch");
      EXPECT_EQ(ex.in_use(), 4u);
      EXPECT_EQ(ex.budget(), 4u);
    }
  }
  {
    net::ErrorFrame e;
    e.code = net::ErrorCode::kCircuitOpen;
    std::uint64_t bits = 0;
    const double retry_after = 1.5;
    std::memcpy(&bits, &retry_after, sizeof(bits));
    e.a = bits;
    e.s1 = "mesh";
    try {
      net::throw_error(e);
      FAIL() << "throw_error returned";
    } catch (const service::CircuitOpenError& ex) {
      EXPECT_EQ(ex.graph_name(), "mesh");
      EXPECT_DOUBLE_EQ(ex.retry_after_s(), 1.5);
    }
  }
  {
    net::ErrorFrame e;
    e.code = net::ErrorCode::kShutdown;
    EXPECT_THROW(net::throw_error(e), service::ServiceShutdownError);
  }
  {
    net::ErrorFrame e;
    e.code = net::ErrorCode::kInternal;
    e.message = "boom";
    try {
      net::throw_error(e);
      FAIL() << "throw_error returned";
    } catch (const net::RemoteError& ex) {
      EXPECT_EQ(ex.code(), net::ErrorCode::kInternal);
      EXPECT_STREQ(ex.what(), "boom");
    }
  }
}

TEST(NetProtocol, ReaderNeverReadsPastTheFrame) {
  // Underrun: ask for more than the body holds.
  const std::uint8_t few[2] = {1, 2};
  net::WireReader r1(few, sizeof(few));
  EXPECT_THROW((void)r1.u32(), net::ProtocolError);

  // A string length pointing past the end.
  net::WireWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8(7);
  const auto bytes = w.bytes();
  net::WireReader r2(bytes.data(), bytes.size());
  EXPECT_THROW((void)r2.str(), net::ProtocolError);

  // An element-count bomb: 2^31 elements in a 6-byte body must throw
  // before any allocation, via count().
  net::WireWriter w2;
  w2.u32(1u << 31);
  w2.u16(0);
  const auto bomb = w2.bytes();
  net::WireReader r3(bomb.data(), bomb.size());
  EXPECT_THROW((void)r3.count(4), net::ProtocolError);
}

TEST(NetProtocol, MalformedQueryBodyThrows) {
  net::WireWriter w;
  w.u8(3);  // truncated: nothing like a full QuerySpec
  const auto bytes = w.bytes();
  net::WireReader r(bytes.data(), bytes.size());
  EXPECT_THROW((void)net::decode_query(r), net::ProtocolError);

  // An enum byte past its name array is rejected, not cast.
  net::WireWriter full;
  net::encode_query(full, QuerySpec{});
  auto body = full.take();
  body[0] = 4;  // QueryType has four values
  net::WireReader r2(body.data(), body.size());
  EXPECT_THROW((void)net::decode_query(r2), net::ProtocolError);
}

// ---------------------------------------------------------------------------
// Server + client over loopback
// ---------------------------------------------------------------------------

TEST(NetServer, PingQueryAndStatsOverLoopback) {
  DetectionService svc(small_service());
  svc.add_graph("g", service::build_graph(demo_graph("g")));
  net::Server server(svc);
  server.start();
  ASSERT_GT(server.port(), 0);

  net::ClientOptions copt;
  copt.port = server.port();
  net::Client client(copt);
  client.ping();

  const QueryResult res = client.query(path_query("g"));
  EXPECT_GE(res.rounds_run, 1);

  const auto s = server.stats();
  EXPECT_EQ(s.connections_accepted, 1u);
  EXPECT_EQ(s.queries_rx, 1u);
  EXPECT_EQ(s.results_tx, 1u);
  EXPECT_GT(s.frames_rx, 0u);
  EXPECT_GT(s.frames_tx, 0u);
  EXPECT_GT(s.rx_bytes, 0u);
  EXPECT_GT(s.tx_bytes, 0u);
  EXPECT_EQ(s.open_connections, 1u);

  client.close();
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(NetServer, AnswersBitIdenticalToInProcess) {
  // The same queries against the same graph, once in-process and once
  // over TCP: every answer-defining field must match exactly.
  const auto gspec = demo_graph("g");

  DetectionService local(small_service());
  local.add_graph("g", service::build_graph(gspec));

  DetectionService remote_svc(small_service());
  net::Server server(remote_svc);
  server.start();
  net::ClientOptions copt;
  copt.port = server.port();
  net::Client client(copt);
  client.add_graph(gspec);  // server regenerates the identical graph

  std::vector<QuerySpec> queries;
  {
    QuerySpec q = path_query("g");
    q.certify = true;
    queries.push_back(q);
  }
  {
    QuerySpec q;
    q.type = QueryType::kTree;
    q.lane = Lane::kBatch;
    q.graph = "g";
    q.k = 4;
    q.max_rounds = 2;
    q.seed = 11;
    q.tree_edges = {{0, 1}, {0, 2}, {0, 3}};  // star
    queries.push_back(q);
  }
  {
    QuerySpec q;
    q.type = QueryType::kScan;
    q.lane = Lane::kBatch;
    q.graph = "g";
    q.k = 3;
    q.max_rounds = 2;
    q.seed = 13;
    q.weights.resize(40);
    for (std::size_t i = 0; i < q.weights.size(); ++i)
      q.weights[i] = static_cast<std::uint32_t>(i % 5);
    queries.push_back(q);
  }
  {
    QuerySpec q;
    q.type = QueryType::kMotif;
    q.lane = Lane::kBatch;
    q.graph = "g";
    q.k = 3;
    q.max_rounds = 2;
    q.seed = 17;
    q.certify = true;
    q.colors.resize(40);
    for (std::size_t i = 0; i < q.colors.size(); ++i)
      q.colors[i] = static_cast<std::uint32_t>(i % 3);
    q.motif = {0, 1, 2};
    queries.push_back(q);
  }

  for (const QuerySpec& q : queries) {
    const QueryResult a = local.submit(q).get();
    const QueryResult b = client.query(q);
    EXPECT_EQ(a.found, b.found) << to_string(q.type);
    EXPECT_EQ(a.rounds_run, b.rounds_run) << to_string(q.type);
    EXPECT_EQ(a.found_round, b.found_round) << to_string(q.type);
    // Bit-exact doubles: the epsilon accounting crossed the wire as raw
    // IEEE-754 bits.
    std::uint64_t bits_a = 0, bits_b = 0;
    std::memcpy(&bits_a, &a.achieved_epsilon, sizeof(bits_a));
    std::memcpy(&bits_b, &b.achieved_epsilon, sizeof(bits_b));
    EXPECT_EQ(bits_a, bits_b) << to_string(q.type);
    EXPECT_EQ(a.certified, b.certified) << to_string(q.type);
    EXPECT_EQ(a.witness, b.witness) << to_string(q.type);
    EXPECT_EQ(a.witness_j, b.witness_j) << to_string(q.type);
    EXPECT_EQ(a.witness_z, b.witness_z) << to_string(q.type);
    EXPECT_EQ(a.table.feasible, b.table.feasible) << to_string(q.type);
  }

  client.close();
  server.stop();
  local.drain();
  remote_svc.drain();
}

TEST(NetServer, PipelinedResponsesReturnOutOfOrder) {
  Gate gate;
  ServiceOptions sopt = small_service();
  sopt.before_execute = [&gate](const QuerySpec& q) { gate.maybe_block(q); };
  DetectionService svc(sopt);
  svc.add_graph("g", service::build_graph(demo_graph("g")));
  net::Server server(svc);
  server.start();

  net::ClientOptions copt;
  copt.port = server.port();
  net::Client client(copt);

  // Submit the gated (slow) query first, the fast one second, on the SAME
  // connection. The fast response must come back while the slow query is
  // still blocked — responses match by msg_id, not submission order.
  auto slow = client.submit(path_query("g", kGateSeed));
  ASSERT_TRUE(gate.await_waiter());
  auto fast = client.submit(path_query("g", 5));
  EXPECT_EQ(fast.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_NE(slow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  gate.release();
  EXPECT_NO_THROW((void)slow.get());
  EXPECT_NO_THROW((void)fast.get());

  client.close();
  server.stop();
}

TEST(NetServer, PerConnectionBackpressureIsTyped) {
  Gate gate;
  ServiceOptions sopt = small_service();
  sopt.workers = 1;
  sopt.before_execute = [&gate](const QuerySpec& q) { gate.maybe_block(q); };
  DetectionService svc(sopt);
  svc.add_graph("g", service::build_graph(demo_graph("g")));
  net::ServerOptions nopt;
  nopt.max_inflight_per_conn = 1;
  net::Server server(svc, nopt);
  server.start();

  net::ClientOptions copt;
  copt.port = server.port();
  net::Client client(copt);

  auto slow = client.submit(path_query("g", kGateSeed));
  ASSERT_TRUE(gate.await_waiter());
  auto rejected = client.submit(path_query("g", 6));
  try {
    (void)rejected.get();
    FAIL() << "second in-flight query should hit the per-conn window";
  } catch (const service::ServiceOverloadError& ex) {
    EXPECT_EQ(ex.shed_policy(), "per-connection");
    EXPECT_EQ(ex.capacity(), 1u);
  }
  gate.release();
  EXPECT_NO_THROW((void)slow.get());

  EXPECT_GE(server.stats().overload_rejects, 1u);
  client.close();
  server.stop();
}

TEST(NetServer, TenantQuotaIsTyped) {
  Gate gate;
  ServiceOptions sopt = small_service();
  sopt.before_execute = [&gate](const QuerySpec& q) { gate.maybe_block(q); };
  DetectionService svc(sopt);
  svc.add_graph("g", service::build_graph(demo_graph("g")));
  net::ServerOptions nopt;
  nopt.tenant_quota_interactive = 1;
  net::Server server(svc, nopt);
  server.start();

  // Two connections, the same tenant: the budget spans the tenant, not
  // the connection.
  net::ClientOptions copt;
  copt.port = server.port();
  copt.tenant = 7;
  net::Client a(copt), b(copt);

  auto slow = a.submit(path_query("g", kGateSeed));
  ASSERT_TRUE(gate.await_waiter());
  try {
    (void)b.query(path_query("g", 8));
    FAIL() << "tenant 7 is at its interactive budget";
  } catch (const net::QuotaExceededError& ex) {
    EXPECT_EQ(ex.tenant(), 7u);
    EXPECT_EQ(ex.lane(), "interactive");
    EXPECT_EQ(ex.in_use(), 1u);
    EXPECT_EQ(ex.budget(), 1u);
  }
  gate.release();
  EXPECT_NO_THROW((void)slow.get());

  // Budget released with the response: the same tenant runs again.
  EXPECT_NO_THROW((void)b.query(path_query("g", 9)));
  EXPECT_GE(server.stats().quota_rejects, 1u);
  a.close();
  b.close();
  server.stop();
}

TEST(NetServer, ServiceErrorsArriveTyped) {
  DetectionService svc(small_service());
  net::Server server(svc);
  server.start();
  net::ClientOptions copt;
  copt.port = server.port();
  net::Client client(copt);

  // Unknown graph: reconstructed without a doubled message prefix.
  try {
    (void)client.query(path_query("nope"));
    FAIL() << "graph was never registered";
  } catch (const service::UnknownGraphError& ex) {
    EXPECT_STREQ(ex.what(), "unknown graph: nope");
  }

  // Validation: the offending field survives the wire. (On a registered
  // graph — the unknown-graph check fires first otherwise.)
  client.add_graph(demo_graph("g"));
  QuerySpec q = path_query("g");
  q.epsilon = 2.0;
  q.max_rounds = 0;
  try {
    (void)client.query(q);
    FAIL() << "epsilon 2.0 must be rejected";
  } catch (const service::QueryValidationError& ex) {
    EXPECT_EQ(ex.field(), "epsilon");
  }

  client.close();
  server.stop();
}

// ---------------------------------------------------------------------------
// The frame-corruption table: every corrupt input produces a typed
// protocol error frame or a clean close — never a crash, never a read
// past the frame.
// ---------------------------------------------------------------------------

class NetCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    svc_ = std::make_unique<DetectionService>(small_service());
    server_ = std::make_unique<net::Server>(*svc_);
    server_->start();
  }
  void TearDown() override {
    // Whatever the abuse, the server must still serve a fresh connection.
    const int fd = raw_connect(server_->port());
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(raw_ping_ok(fd, 999));
    ::close(fd);
    server_->stop();
  }

  std::unique_ptr<DetectionService> svc_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(NetCorruptionTest, TruncatedHeaderThenCloseIsClean) {
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  const std::uint8_t partial[10] = {0};
  ASSERT_TRUE(send_all(fd, partial, sizeof(partial)));
  ::close(fd);  // half a header, then gone — server just drops the conn
}

TEST_F(NetCorruptionTest, BadMagicGetsProtocolErrorThenClose) {
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  net::FrameHeader h;
  h.magic = 0xDEADDEADu;
  h.type = static_cast<std::uint16_t>(net::FrameType::kPing);
  h.msg_id = 1;
  std::uint8_t buf[net::kHeaderSize];
  net::encode_header(buf, h);
  ASSERT_TRUE(send_all(fd, buf, sizeof(buf)));

  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kError));
  EXPECT_EQ(resp.h.msg_id, 0u);  // connection-level: the stream is gone
  EXPECT_EQ(decode_error_body(resp).code, net::ErrorCode::kProtocol);
  EXPECT_TRUE(expect_eof(fd));
  ::close(fd);
}

TEST_F(NetCorruptionTest, WrongVersionGetsProtocolErrorThenClose) {
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  net::FrameHeader h;
  h.version = 42;
  h.type = static_cast<std::uint16_t>(net::FrameType::kPing);
  h.msg_id = 1;
  std::uint8_t buf[net::kHeaderSize];
  net::encode_header(buf, h);
  ASSERT_TRUE(send_all(fd, buf, sizeof(buf)));

  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kError));
  EXPECT_EQ(decode_error_body(resp).code, net::ErrorCode::kProtocol);
  EXPECT_TRUE(expect_eof(fd));
  ::close(fd);
}

TEST_F(NetCorruptionTest, OversizedBodyGetsProtocolErrorThenClose) {
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  net::FrameHeader h;
  h.type = static_cast<std::uint16_t>(net::FrameType::kQueryReq);
  h.body_len = net::kMaxBody + 1;  // never believed, never allocated
  h.msg_id = 1;
  std::uint8_t buf[net::kHeaderSize];
  net::encode_header(buf, h);
  ASSERT_TRUE(send_all(fd, buf, sizeof(buf)));

  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kError));
  EXPECT_EQ(decode_error_body(resp).code, net::ErrorCode::kProtocol);
  EXPECT_TRUE(expect_eof(fd));
  ::close(fd);
}

TEST_F(NetCorruptionTest, UnknownTypeIsPerMessageErrorConnectionSurvives) {
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  net::FrameHeader h;
  h.type = 99;
  h.msg_id = 42;
  std::uint8_t buf[net::kHeaderSize];
  net::encode_header(buf, h);
  ASSERT_TRUE(send_all(fd, buf, sizeof(buf)));

  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kError));
  EXPECT_EQ(resp.h.msg_id, 42u);  // per-message: framing itself was fine
  EXPECT_EQ(decode_error_body(resp).code, net::ErrorCode::kProtocol);
  EXPECT_TRUE(raw_ping_ok(fd, 43));  // same connection still serves
  ::close(fd);
}

TEST_F(NetCorruptionTest, MalformedBodyIsPerMessageErrorConnectionSurvives) {
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  const auto frame =
      net::make_frame(net::FrameType::kQueryReq, 7, 0, junk);
  ASSERT_TRUE(send_all(fd, frame.data(), frame.size()));

  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kError));
  EXPECT_EQ(resp.h.msg_id, 7u);
  EXPECT_EQ(decode_error_body(resp).code, net::ErrorCode::kProtocol);
  EXPECT_TRUE(raw_ping_ok(fd, 8));
  EXPECT_GE(server_->stats().protocol_errors, 1u);
  ::close(fd);
}

/// A well-formed motif query frame for graph `g` (the demo 40-vertex gnp),
/// encoded by the real codec — corruption tests then damage the bytes.
QuerySpec motif_query(const std::string& graph, std::uint64_t seed = 17) {
  QuerySpec q;
  q.type = QueryType::kMotif;
  q.lane = Lane::kBatch;
  q.graph = graph;
  q.k = 3;
  q.max_rounds = 2;
  q.seed = seed;
  q.colors.resize(40);
  for (std::size_t i = 0; i < q.colors.size(); ++i)
    q.colors[i] = static_cast<std::uint32_t>(i % 3);
  q.motif = {0, 1, 2};
  return q;
}

TEST_F(NetCorruptionTest, TruncatedMotifColorListIsPerMessageError) {
  svc_->add_graph("g", service::build_graph(demo_graph("g")));
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  net::WireWriter w;
  net::encode_query(w, motif_query("g"));
  auto body = w.take();
  // Chop the frame mid color list: the count survives, half the elements
  // do not. The decoder must fault on the missing bytes, not read the
  // next frame's.
  body.resize(body.size() - 70);
  const auto frame = net::make_frame(net::FrameType::kQueryReq, 11, 0, body);
  ASSERT_TRUE(send_all(fd, frame.data(), frame.size()));

  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kError));
  EXPECT_EQ(resp.h.msg_id, 11u);
  EXPECT_EQ(decode_error_body(resp).code, net::ErrorCode::kProtocol);
  EXPECT_TRUE(raw_ping_ok(fd, 12));
  ::close(fd);
}

TEST_F(NetCorruptionTest, MotifCountBombThrowsBeforeAllocation) {
  svc_->add_graph("g", service::build_graph(demo_graph("g")));
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  net::WireWriter w;
  net::encode_query(w, motif_query("g"));
  auto body = w.take();
  // The motif multiset count is the last vector in the body: its u32
  // count sits 4 * 3 + 4 bytes from the end (3 elements + the count).
  // Rewrite it to claim 2^31 elements; count() must reject it against the
  // 12 bytes actually remaining, before any resize happens.
  const std::size_t count_off = body.size() - (4u * 3 + 4);
  body[count_off] = 0x00;
  body[count_off + 1] = 0x00;
  body[count_off + 2] = 0x00;
  body[count_off + 3] = 0x80;
  const auto frame = net::make_frame(net::FrameType::kQueryReq, 21, 0, body);
  ASSERT_TRUE(send_all(fd, frame.data(), frame.size()));

  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kError));
  EXPECT_EQ(resp.h.msg_id, 21u);
  EXPECT_EQ(decode_error_body(resp).code, net::ErrorCode::kProtocol);
  EXPECT_TRUE(raw_ping_ok(fd, 22));
  ::close(fd);
}

TEST_F(NetCorruptionTest, UnknownMotifColorIsTypedValidationError) {
  svc_->add_graph("g", service::build_graph(demo_graph("g")));
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  // Framing-wise this query is perfect; semantically it asks for color 9,
  // which no vertex carries. That is a client bug, caught by service
  // validation and returned as the same typed error a local submit throws.
  QuerySpec q = motif_query("g");
  q.motif = {0, 1, 9};
  net::WireWriter w;
  net::encode_query(w, q);
  const auto frame =
      net::make_frame(net::FrameType::kQueryReq, 31, 0, w.take());
  ASSERT_TRUE(send_all(fd, frame.data(), frame.size()));

  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kError));
  EXPECT_EQ(resp.h.msg_id, 31u);
  const net::ErrorFrame e = decode_error_body(resp);
  EXPECT_EQ(e.code, net::ErrorCode::kValidation);
  EXPECT_EQ(e.s1, "motif");
  EXPECT_TRUE(raw_ping_ok(fd, 32));
  ::close(fd);
}

TEST_F(NetCorruptionTest, NanTimeoutIsTypedValidationError) {
  // A NaN deadline frames cleanly; admission rejects it by field name
  // instead of reading it as "no deadline".
  svc_->add_graph("g", service::build_graph(demo_graph("g")));
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  QuerySpec q = path_query("g");
  q.timeout_s = std::numeric_limits<double>::quiet_NaN();
  net::WireWriter w;
  net::encode_query(w, q);
  const auto frame =
      net::make_frame(net::FrameType::kQueryReq, 41, 0, w.take());
  ASSERT_TRUE(send_all(fd, frame.data(), frame.size()));

  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kError));
  EXPECT_EQ(resp.h.msg_id, 41u);
  const net::ErrorFrame e = decode_error_body(resp);
  EXPECT_EQ(e.code, net::ErrorCode::kValidation);
  EXPECT_EQ(e.s1, "timeout_s");
  EXPECT_TRUE(raw_ping_ok(fd, 42));
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Chaos: the wire under abuse
// ---------------------------------------------------------------------------

TEST(NetChaos, ClientKilledMidQueryLeavesServerServing) {
  Gate gate;
  ServiceOptions sopt = small_service();
  sopt.before_execute = [&gate](const QuerySpec& q) { gate.maybe_block(q); };
  DetectionService svc(sopt);
  svc.add_graph("g", service::build_graph(demo_graph("g")));
  net::Server server(svc);
  server.start();

  net::ClientOptions copt;
  copt.port = server.port();
  {
    net::Client doomed(copt);
    auto fut = doomed.submit(path_query("g", kGateSeed));
    ASSERT_TRUE(gate.await_waiter());
    doomed.close();  // connection dies with the query still executing
    EXPECT_THROW((void)fut.get(), net::TransportError);
  }
  gate.release();  // the orphaned response is discarded server-side

  net::Client fresh(copt);
  fresh.ping();
  EXPECT_NO_THROW((void)fresh.query(path_query("g", 21)));
  fresh.close();
  server.stop();
}

TEST(NetChaos, FragmentedFramesReassemble) {
  DetectionService svc(small_service());
  net::Server server(svc);
  server.start();

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  // One ping, delivered one byte at a time: the server must assemble it
  // across arbitrary TCP fragmentation.
  const auto ping = ping_frame(5);
  for (std::uint8_t byte : ping) {
    ASSERT_TRUE(send_all(fd, &byte, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RawFrame resp;
  ASSERT_TRUE(recv_frame(fd, resp));
  EXPECT_EQ(resp.h.type, static_cast<std::uint16_t>(net::FrameType::kPong));
  EXPECT_EQ(resp.h.msg_id, 5u);
  ::close(fd);
  server.stop();
}

TEST(NetChaos, HalfWrittenFrameThenAbortIsClean) {
  DetectionService svc(small_service());
  net::Server server(svc);
  server.start();

  // A header promising 100 bytes, 40 delivered, then a hard close. The
  // server must drop the connection without ever acting on the partial
  // body — and keep serving.
  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  net::FrameHeader h;
  h.type = static_cast<std::uint16_t>(net::FrameType::kQueryReq);
  h.body_len = 100;
  h.msg_id = 9;
  std::uint8_t buf[net::kHeaderSize];
  net::encode_header(buf, h);
  ASSERT_TRUE(send_all(fd, buf, sizeof(buf)));
  const std::vector<std::uint8_t> partial(40, 0xAB);
  ASSERT_TRUE(send_all(fd, partial.data(), partial.size()));
  ::close(fd);

  const int fd2 = raw_connect(server.port());
  ASSERT_GE(fd2, 0);
  EXPECT_TRUE(raw_ping_ok(fd2, 10));
  ::close(fd2);
  server.stop();
}

TEST(NetChaos, ConnectFloodPastLimitGetsTypedRejects) {
  DetectionService svc(small_service());
  net::ServerOptions nopt;
  nopt.max_connections = 3;
  nopt.backlog = 2;
  net::Server server(svc, nopt);
  server.start();

  // Fill the limit with live connections.
  std::vector<int> held;
  for (int i = 0; i < 3; ++i) {
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(raw_ping_ok(fd, static_cast<std::uint64_t>(i) + 1));
    held.push_back(fd);
  }

  // Flood past it: every accepted-then-rejected socket must see a typed
  // connection-level overload frame, then EOF — never a silent drop.
  int typed_rejects = 0;
  for (int i = 0; i < 8; ++i) {
    const int fd = raw_connect(server.port());
    if (fd < 0) continue;  // backlog overflow: refused at the TCP layer
    RawFrame resp;
    if (recv_frame(fd, resp)) {
      EXPECT_EQ(resp.h.type,
                static_cast<std::uint16_t>(net::FrameType::kError));
      EXPECT_EQ(resp.h.msg_id, 0u);
      const net::ErrorFrame e = decode_error_body(resp);
      EXPECT_EQ(e.code, net::ErrorCode::kOverload);
      EXPECT_EQ(e.s1, "connection-limit");
      ++typed_rejects;
      EXPECT_TRUE(expect_eof(fd));
    }
    ::close(fd);
  }
  EXPECT_GE(typed_rejects, 1);
  EXPECT_GE(server.stats().connections_rejected,
            static_cast<std::uint64_t>(typed_rejects));

  // Capacity freed -> new connections serve again.
  ::close(held.back());
  held.pop_back();
  int ok_fd = -1;
  for (int attempt = 0; attempt < 100 && ok_fd < 0; ++attempt) {
    const int fd = raw_connect(server.port());
    if (fd < 0) break;
    if (raw_ping_ok(fd, 77)) {
      ok_fd = fd;
    } else {
      ::close(fd);  // close not yet processed server-side; retry
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_GE(ok_fd, 0);
  if (ok_fd >= 0) ::close(ok_fd);
  for (int fd : held) ::close(fd);
  server.stop();
}

TEST(NetChaos, SustainsAThousandConcurrentConnections) {
  DetectionService svc(small_service());
  net::Server server(svc);
  server.start();

  // 1000 concurrent raw connections, each pinged and answered, all open
  // at once. (Raw sockets: no per-connection client threads needed.)
  constexpr int kConns = 1000;
  std::vector<int> fds;
  fds.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0) << "connect " << i << " failed";
    fds.push_back(fd);
  }
  // connect() returns once the kernel queues the socket; the accept loop
  // registers it a moment later. Wait for all 1000 to be open at once.
  std::size_t open = 0;
  for (int spin = 0; spin < 1000; ++spin) {
    open = server.stats().open_connections;
    if (open == static_cast<std::size_t>(kConns)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(open, static_cast<std::size_t>(kConns));
  // Write every ping first (pipelined across connections), then collect.
  for (int i = 0; i < kConns; ++i) {
    const auto ping = ping_frame(static_cast<std::uint64_t>(i) + 1);
    ASSERT_TRUE(send_all(fds[static_cast<std::size_t>(i)], ping.data(),
                         ping.size()));
  }
  for (int i = 0; i < kConns; ++i) {
    RawFrame resp;
    ASSERT_TRUE(recv_frame(fds[static_cast<std::size_t>(i)], resp))
        << "pong " << i << " missing";
    EXPECT_EQ(resp.h.type,
              static_cast<std::uint16_t>(net::FrameType::kPong));
    EXPECT_EQ(resp.h.msg_id, static_cast<std::uint64_t>(i) + 1);
  }
  for (int fd : fds) ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().connections_accepted,
            static_cast<std::uint64_t>(kConns));
}

}  // namespace
