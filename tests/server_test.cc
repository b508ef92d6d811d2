// Loopback integration tests for the serving layer (src/server/):
// protocol round trips, bit-identical coalesced answers, overload
// shedding, malformed-request handling, and graceful drain. Every test
// talks to a real epoll Server over 127.0.0.1 via server::Client.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/karl.h"
#include "data/synthetic.h"
#include "registry/registry.h"
#include "registry/snapshot.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "telemetry/trace.h"
#include "util/log.h"
#include "util/rng.h"

namespace karl::server {
namespace {

constexpr double kEps = 0.05;
constexpr double kTau = 40.0;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(7);
    points_ = data::SampleClustered(400, 4, 3, 0.08, rng);
    queries_ = data::SampleClustered(64, 4, 3, 0.10, rng);
    EngineOptions options;
    options.kernel = core::KernelParams::Gaussian(3.0);
    options.leaf_capacity = 24;
    auto built = Engine::BuildUniform(points_, 1.0, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    engine_.emplace(std::move(built).ValueOrDie());
  }

  // Starts a server on an ephemeral port with this test's registry.
  void StartServer(size_t max_pending = 1024) {
    ServerOptions options;
    options.max_pending = max_pending;
    StartServerWith(std::move(options));
  }

  // Same, but with caller-supplied options, serving `engine` (default:
  // this test's engine) as the only model of a directory-less registry.
  // The engine is served the way karl_server serves one: written as a
  // snapshot and registered as an explicit file, which answers
  // bit-identically to the built engine.
  void StartServerWith(ServerOptions options,
                       const Engine* engine = nullptr) {
    // Named after the test: ctest runs tests as concurrent processes.
    const std::string snapshot = TempPath(
        std::string("server_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".snap");
    ASSERT_TRUE(
        registry::WriteSnapshot(snapshot,
                                engine != nullptr ? *engine : *engine_)
            .ok());
    registry::RegistryOptions registry_options;
    registry_options.default_model = "default";
    registry_options.metrics = &registry_;
    registry_options.logger = options.logger;
    auto models = registry::ModelRegistry::Open("", registry_options);
    ASSERT_TRUE(models.ok()) << models.status().ToString();
    models_ = std::move(models).ValueOrDie();
    ASSERT_TRUE(models_->AddModelFile("default", snapshot).ok());
    options.port = 0;
    options.threads = 2;
    options.metrics = &registry_;
    auto server = Server::StartWithRegistry(models_.get(), std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).ValueOrDie();
  }

  // Fresh (removed) temp file path; loggers open in append mode, so a
  // stale file from a previous run would skew line counts.
  static std::string TempPath(const std::string& name) {
    std::string path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    return path;
  }

  static std::vector<std::string> ReadLines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  Client Dial() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).ValueOrDie();
  }

  // In-band {"op":"health"} over the raw line surface; returns the
  // response's "status" ("serving" or "draining").
  static util::Result<std::string> Health(Client& client) {
    KARL_RETURN_NOT_OK(client.SendLine(R"({"op":"health"})"));
    auto line = client.ReceiveLine();
    if (!line.ok()) return line.status();
    auto response = Json::Parse(line.value());
    if (!response.ok()) return response.status();
    const Json* status = response.value().Find("status");
    if (status == nullptr || !status->is_string()) {
      return util::Status::IOError("no status in " + line.value());
    }
    return status->string_value();
  }

  // One {"op":"query","kind":"exact"} line for `q`, tagged with `id`
  // when non-empty.
  static std::string ExactLine(std::span<const double> q,
                               const std::string& id) {
    Json request = Json::Object()
                       .Set("op", Json::Str("query"))
                       .Set("kind", Json::Str("exact"));
    if (!id.empty()) request.Set("id", Json::Str(id));
    Json row = Json::Array();
    for (const double v : q) row.Append(Json::Number(v));
    request.Set("q", std::move(row));
    return request.Dump();
  }

  double GaugeValue(const std::string& name) {
    return registry_.GetGauge(name)->value();
  }

  uint64_t CounterValue(const std::string& name) {
    return registry_.GetCounter(name)->value();
  }

  // Spins until `gauge` reaches `at_least` (all queries admitted); the
  // coalescer is paused, so the level cannot drop concurrently.
  void WaitForPendingRows(double at_least) {
    while (GaugeValue("karl_server_pending_rows") < at_least) {
      std::this_thread::yield();
    }
  }

  data::Matrix points_{0, 0};
  data::Matrix queries_{0, 0};
  std::optional<Engine> engine_;
  telemetry::Registry registry_;
  std::unique_ptr<registry::ModelRegistry> models_;  // Outlives server_.
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, SingleQueriesMatchLocalEngineBitExactly) {
  StartServer();
  Client client = Dial();
  for (size_t i = 0; i < 8; ++i) {
    const auto q = queries_.Row(i);
    auto above = client.Tkaq(q, kTau);
    ASSERT_TRUE(above.ok()) << above.status().ToString();
    EXPECT_EQ(above.value(), engine_->Tkaq(q, kTau));

    auto approx = client.Ekaq(q, kEps);
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    EXPECT_EQ(approx.value(), engine_->Ekaq(q, kEps));  // Bit-identical.

    auto exact = client.Exact(q);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(exact.value(), engine_->Exact(q));
  }
}

// "eps":2 is a valid request: for ε >= 1 the contract's lower side is
// vacuous, and the answer is the in-process engine's, bit for bit.
TEST_F(ServerTest, EpsOfTwoIsAnsweredLikeTheLocalEngine) {
  StartServer();
  Client client = Dial();
  for (size_t i = 0; i < 8; ++i) {
    const auto q = queries_.Row(i);
    std::string line = R"({"op":"query","kind":"ekaq","eps":2,"q":[)";
    for (size_t j = 0; j < q.size(); ++j) {
      if (j > 0) line += ',';
      line += Json::Number(q[j]).Dump();
    }
    line += "]}";
    ASSERT_TRUE(client.SendLine(line).ok());
    auto reply = client.ReceiveLine();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto response = Json::Parse(reply.value());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const Json* value = response.value().Find("value");
    ASSERT_NE(value, nullptr) << reply.value();
    EXPECT_EQ(std::bit_cast<uint64_t>(value->number_value()),
              std::bit_cast<uint64_t>(engine_->Ekaq(q, 2.0)))
        << "query " << i;
  }
}

TEST_F(ServerTest, BatchRequestMatchesLocalBatch) {
  StartServer();
  Client client = Dial();

  auto above = client.TkaqBatch(queries_, kTau);
  ASSERT_TRUE(above.ok()) << above.status().ToString();
  EXPECT_EQ(above.value(), engine_->TkaqBatch(queries_, kTau));

  auto approx = client.EkaqBatch(queries_, kEps);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_EQ(approx.value(), engine_->EkaqBatch(queries_, kEps));

  auto exact = client.ExactBatch(queries_);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact.value(), engine_->ExactBatch(queries_));
}

// The acceptance-criteria test: many concurrent single-query clients,
// dispatched as a handful of coalesced BatchEvaluator calls, must get
// answers bit-identical to the serial Engine loop.
TEST_F(ServerTest, CoalescedConcurrentQueriesAreBitIdenticalToSerial) {
  StartServer();
  const size_t n = 32;

  // Freeze dispatch so every request is admitted into one backlog, then
  // release: the dispatcher sweeps them into large same-(kind,param)
  // groups. The pending-rows gauge says when all n are queued.
  server_->PauseCoalescerForTest();
  std::vector<Client> clients;
  clients.reserve(n);
  for (size_t i = 0; i < n; ++i) clients.push_back(Dial());
  for (size_t i = 0; i < n; ++i) {
    Json request = Json::Object()
                       .Set("op", Json::Str("query"))
                       .Set("kind", Json::Str("ekaq"))
                       .Set("eps", Json::Number(kEps));
    Json q = Json::Array();
    for (const double v : queries_.Row(i)) q.Append(Json::Number(v));
    request.Set("q", std::move(q));
    ASSERT_TRUE(clients[i].SendLine(request.Dump()).ok());
  }
  WaitForPendingRows(static_cast<double>(n));
  server_->ResumeCoalescerForTest();

  for (size_t i = 0; i < n; ++i) {
    auto line = clients[i].ReceiveLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto response = Json::Parse(line.value());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const Json* value = response.value().Find("value");
    ASSERT_NE(value, nullptr) << line.value();
    // %.17g round-trips doubles exactly, so bit-identical equality holds
    // across the wire.
    EXPECT_EQ(value->number_value(), engine_->Ekaq(queries_.Row(i), kEps))
        << "query " << i;
  }

  // All n queries were answered by fewer dispatch groups (coalescing
  // actually happened, rather than n single-row batches).
  EXPECT_EQ(CounterValue("karl_server_queries_total"), n);
  EXPECT_LT(CounterValue("karl_server_batches_total"), n);
}

TEST_F(ServerTest, OverloadShedsWithExplicitErrorAndBoundedQueue) {
  StartServer(/*max_pending=*/4);
  server_->PauseCoalescerForTest();

  Client client = Dial();
  const size_t total = 10;
  // One write for the whole burst: the loopback delivers it as one
  // buffer, so the event loop makes all ten admission decisions before
  // any response can reach the client — deterministic 4-admitted/6-shed
  // regardless of scheduling.
  std::string burst;
  for (size_t i = 0; i < total; ++i) {
    Json request = Json::Object()
                       .Set("op", Json::Str("query"))
                       .Set("kind", Json::Str("exact"))
                       .Set("id", Json::Str("q" + std::to_string(i)));
    Json q = Json::Array();
    for (const double v : queries_.Row(i)) q.Append(Json::Number(v));
    request.Set("q", std::move(q));
    burst += request.Dump() + "\n";
  }
  ASSERT_TRUE(client.SendLine(burst).ok());

  // First 4 fill the queue; 6 shed immediately. Collect all 10 responses
  // (order mixes shed errors and, after resume, the admitted answers).
  size_t overloaded = 0, answered = 0;
  std::vector<std::string> lines;
  for (size_t i = 0; i < total; ++i) {
    if (i == 0) {
      // The shed responses arrive while the dispatcher is still paused
      // — admission stays bounded without dispatch making progress.
      auto first = client.ReceiveLine();
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      lines.push_back(first.value());
      server_->ResumeCoalescerForTest();
      continue;
    }
    auto line = client.ReceiveLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    lines.push_back(line.value());
  }
  for (const std::string& text : lines) {
    auto response = Json::Parse(text);
    ASSERT_TRUE(response.ok()) << text;
    const Json* error = response.value().Find("error");
    if (error != nullptr) {
      EXPECT_EQ(error->string_value(), "overloaded") << text;
      ++overloaded;
    } else {
      const Json* id = response.value().Find("id");
      ASSERT_NE(id, nullptr) << text;
      const size_t index = std::stoul(id->string_value().substr(1));
      const Json* value = response.value().Find("value");
      ASSERT_NE(value, nullptr) << text;
      EXPECT_EQ(value->number_value(), engine_->Exact(queries_.Row(index)));
      ++answered;
    }
  }
  EXPECT_EQ(overloaded, 6u);
  EXPECT_EQ(answered, 4u);
  EXPECT_EQ(CounterValue("karl_server_overload_total"), 6u);
}

TEST_F(ServerTest, MalformedRequestsAreRejectedWithoutKillingConnection) {
  StartServer();
  Client client = Dial();
  const std::vector<std::string> bad = {
      "this is not json",
      "{\"op\":\"launch\"}",
      "{\"op\":\"query\",\"kind\":\"tkaq\",\"q\":[1,2,3,4]}",  // No tau.
      "{\"op\":\"query\",\"kind\":\"ekaq\",\"eps\":-1,\"q\":[1,2,3,4]}",
      "{\"op\":\"query\",\"kind\":\"exact\",\"q\":[1,2]}",  // Dim mismatch.
      "{\"op\":\"query\",\"kind\":\"exact\",\"q\":[]}",
      "{\"op\":\"batch\",\"kind\":\"exact\",\"queries\":[[1,2,3,4],[1,2]]}",
  };
  for (const std::string& line : bad) {
    ASSERT_TRUE(client.SendLine(line).ok());
    auto response = client.ReceiveLine();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto parsed = Json::Parse(response.value());
    ASSERT_TRUE(parsed.ok()) << response.value();
    const Json* error = parsed.value().Find("error");
    ASSERT_NE(error, nullptr) << response.value();
    EXPECT_EQ(error->string_value(), "bad_request") << line;
  }
  // The connection survived all of it and still answers queries.
  auto exact = client.Exact(queries_.Row(0));
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact.value(), engine_->Exact(queries_.Row(0)));
  EXPECT_EQ(CounterValue("karl_server_bad_request_total"), bad.size());
}

TEST_F(ServerTest, OversizedLineIsRejectedAndConnectionClosed) {
  StartServer();

  Client client = Dial();
  // One byte over the cap: the longest accepted line is kMaxLineBytes.
  std::string huge(kMaxLineBytes + 1, 'x');
  ASSERT_TRUE(client.SendLine(huge).ok());
  auto response = client.ReceiveLine();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response.value().find("bad_request"), std::string::npos);
  // Server closes after the error: next read sees EOF.
  auto eof = client.ReceiveLine();
  EXPECT_FALSE(eof.ok());
}

TEST_F(ServerTest, GracefulShutdownDrainsAdmittedWork) {
  StartServer();
  server_->PauseCoalescerForTest();

  Client client = Dial();
  const size_t n = 8;
  for (size_t i = 0; i < n; ++i) {
    Json request = Json::Object()
                       .Set("op", Json::Str("query"))
                       .Set("kind", Json::Str("ekaq"))
                       .Set("eps", Json::Number(kEps))
                       .Set("id", Json::Str(std::to_string(i)));
    Json q = Json::Array();
    for (const double v : queries_.Row(i)) q.Append(Json::Number(v));
    request.Set("q", std::move(q));
    ASSERT_TRUE(client.SendLine(request.Dump()).ok());
  }
  WaitForPendingRows(static_cast<double>(n));

  // Shutdown with 8 admitted-but-undispatched queries: every one must
  // still be answered (BeginDrain resumes the paused dispatcher).
  server_->Shutdown();
  size_t received = 0;
  for (size_t i = 0; i < n; ++i) {
    auto line = client.ReceiveLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto response = Json::Parse(line.value());
    ASSERT_TRUE(response.ok()) << line.value();
    const Json* id = response.value().Find("id");
    ASSERT_NE(id, nullptr) << line.value();
    const size_t index = std::stoul(id->string_value());
    const Json* value = response.value().Find("value");
    ASSERT_NE(value, nullptr) << line.value();
    EXPECT_EQ(value->number_value(), engine_->Ekaq(queries_.Row(index), kEps));
    ++received;
  }
  EXPECT_EQ(received, n);
  // After the last response the server closes the connection and Wait()
  // returns: the drain completed.
  auto eof = client.ReceiveLine();
  EXPECT_FALSE(eof.ok());
  server_->Wait();
}

TEST_F(ServerTest, QueriesDuringDrainAreRefusedAsShuttingDown) {
  StartServer();
  server_->PauseCoalescerForTest();
  Client holder = Dial();
  Json request = Json::Object()
                     .Set("op", Json::Str("query"))
                     .Set("kind", Json::Str("exact"));
  Json q = Json::Array();
  for (const double v : queries_.Row(0)) q.Append(Json::Number(v));
  request.Set("q", std::move(q));
  ASSERT_TRUE(holder.SendLine(request.Dump()).ok());
  WaitForPendingRows(1.0);

  // A second connection dialed before Shutdown stays connected during
  // the drain, but its new queries are refused.
  Client late = Dial();
  server_->Shutdown();
  auto health = Health(late);
  if (health.ok()) {
    EXPECT_EQ(health.value(), "draining");
  }  // Else the drain already closed the connection — also a valid race.

  auto answer = holder.ReceiveLine();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_NE(answer.value().find("\"value\""), std::string::npos);
  server_->Wait();
}

// In-band status is health only: status lives on the HTTP admin plane,
// so "metrics" and "statusz" ops are refused like any unknown op and
// the connection keeps serving.
TEST_F(ServerTest, HealthAndMetricsRoundTrip) {
  StartServer();
  Client client = Dial();
  auto health = Health(client);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value(), "serving");

  ASSERT_TRUE(client.Exact(queries_.Row(0)).ok());
  for (const char* op : {"metrics", "statusz"}) {
    auto response = client.RoundTrip(Json::Object().Set("op", Json::Str(op)));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const Json* error = response.value().Find("error");
    ASSERT_NE(error, nullptr) << response.value().Dump();
    EXPECT_EQ(error->string_value(), "bad_request") << op;
  }
  health = Health(client);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value(), "serving");
}

TEST_F(ServerTest, EkaqOnTypeThreeWeightsIsRejectedUpFront) {
  util::Rng rng(11);
  std::vector<double> weights(points_.rows());
  for (auto& w : weights) w = rng.Uniform(-1.0, 1.0);  // Mixed signs.
  EngineOptions options;
  options.kernel = core::KernelParams::Gaussian(3.0);
  auto mixed = Engine::Build(points_, weights, options);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed.value().weighting_type(), WeightingType::kTypeIII);

  StartServerWith(ServerOptions{}, &mixed.value());

  Client client = Dial();
  auto approx = client.Ekaq(queries_.Row(0), kEps);
  EXPECT_FALSE(approx.ok());
  EXPECT_NE(approx.status().ToString().find("bad_request"),
            std::string::npos);
  // TKAQ still works on Type III.
  auto above = client.Tkaq(queries_.Row(0), 0.0);
  ASSERT_TRUE(above.ok()) << above.status().ToString();
  EXPECT_EQ(above.value(), mixed.value().Tkaq(queries_.Row(0), 0.0));
}

TEST_F(ServerTest, NonFiniteAnswerTravelsAsJsonNull) {
  // A cubic kernel overflows to a non-finite aggregate on a query that
  // is finite and accepted; JSON has no literal for it, so the reply
  // must still parse, carrying null.
  data::Matrix points(4, 2);
  const double coords[4][2] = {{1.0, 1.0}, {2.0, 2.0}, {1.0, 2.0}, {2.0, 1.0}};
  for (size_t i = 0; i < 4; ++i) {
    points.MutableRow(i)[0] = coords[i][0];
    points.MutableRow(i)[1] = coords[i][1];
  }
  EngineOptions options;
  options.kernel = core::KernelParams::Polynomial(1.0, 0.0, 3);
  auto poly = Engine::BuildUniform(points, 1.0, options);
  ASSERT_TRUE(poly.ok()) << poly.status().ToString();
  StartServerWith(ServerOptions{}, &poly.value());

  Client client = Dial();
  ASSERT_TRUE(client
                  .SendLine(R"({"op":"query","kind":"exact",)"
                            R"("q":[1e300,1e300],"id":"r1"})")
                  .ok());
  auto line = client.ReceiveLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  auto reply = Json::Parse(line.value());
  ASSERT_TRUE(reply.ok()) << line.value() << ": "
                          << reply.status().ToString();
  ASSERT_NE(reply.value().Find("ok"), nullptr) << line.value();
  EXPECT_TRUE(reply.value().Find("ok")->bool_value()) << line.value();
  const Json* value = reply.value().Find("value");
  ASSERT_NE(value, nullptr) << line.value();
  EXPECT_EQ(value->type(), Json::Type::kNull) << line.value();
  EXPECT_EQ(reply.value().Find("id")->string_value(), "r1");
}

// Tentpole acceptance: every admitted request lands in the flight
// recorder exactly once, with a stage breakdown whose sum nests inside
// the request's own latency window, and the access log agrees.
TEST_F(ServerTest, FlightRecorderSeesEveryAdmittedRequestExactlyOnce) {
  const std::string access_path = TempPath("server_access.ndjson");
  util::Logger::Options access_options;
  access_options.ndjson = true;
  auto access_log = util::Logger::Open(access_path, access_options);
  ASSERT_TRUE(access_log.ok()) << access_log.status().ToString();

  ServerOptions options;
  options.access_log = access_log.value().get();
  StartServerWith(std::move(options));

  Client client = Dial();
  const size_t singles = 5;
  for (size_t i = 0; i < singles; ++i) {
    Json request = Json::Object()
                       .Set("op", Json::Str("query"))
                       .Set("kind", Json::Str("ekaq"))
                       .Set("eps", Json::Number(kEps))
                       .Set("id", Json::Str("s" + std::to_string(i)));
    Json q = Json::Array();
    for (const double v : queries_.Row(i)) q.Append(Json::Number(v));
    request.Set("q", std::move(q));
    ASSERT_TRUE(client.SendLine(request.Dump()).ok());
    auto line = client.ReceiveLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    EXPECT_NE(line.value().find("\"value\""), std::string::npos);
  }
  Json batch = Json::Object()
                   .Set("op", Json::Str("batch"))
                   .Set("kind", Json::Str("exact"))
                   .Set("id", Json::Str("b0"));
  Json rows = Json::Array();
  for (size_t i = 0; i < 3; ++i) {
    Json q = Json::Array();
    for (const double v : queries_.Row(i)) q.Append(Json::Number(v));
    rows.Append(std::move(q));
  }
  batch.Set("queries", std::move(rows));
  ASSERT_TRUE(client.SendLine(batch.Dump()).ok());
  ASSERT_TRUE(client.ReceiveLine().ok());

  // All six completions were finished on the event-loop thread before
  // it could even frame this health request, so once its answer is back
  // the snapshot is complete by construction — no sleep needed.
  ASSERT_TRUE(Health(client).ok());
  const std::string flightz = server_->FlightzNdjson();
  std::vector<Json> requests;
  for (size_t begin = 0; begin < flightz.size();) {
    const size_t end = flightz.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << flightz;
    auto parsed = Json::Parse(flightz.substr(begin, end - begin));
    ASSERT_TRUE(parsed.ok()) << flightz;
    requests.push_back(std::move(parsed).ValueOrDie());
    begin = end + 1;
  }
  ASSERT_EQ(requests.size(), singles + 1);

  static const char* kStages[] = {
      "read_us",          "parse_us", "queue_wait_us", "coalesce_wait_us",
      "eval_us",          "serialize_us", "write_us"};
  std::map<std::string, double> total_by_id;
  for (const Json& entry : requests) {
    const Json* id = entry.Find("id");
    ASSERT_NE(id, nullptr);
    ASSERT_EQ(total_by_id.count(id->string_value()), 0u)
        << "duplicate flight record for " << id->string_value();
    EXPECT_TRUE(entry.Find("ok")->bool_value());
    ASSERT_NE(entry.Find("peer"), nullptr);
    EXPECT_NE(entry.Find("peer")->string_value().find("127.0.0.1:"),
              std::string::npos);
    double stage_sum = 0.0;
    for (const char* stage : kStages) {
      const Json* v = entry.Find(stage);
      ASSERT_NE(v, nullptr) << stage;
      stage_sum += v->number_value();
    }
    const double total = entry.Find("total_us")->number_value();
    EXPECT_GT(total, 0.0);
    // The seven stages are disjoint sub-windows of [first byte read,
    // response written], so their sum cannot exceed the total (the
    // dispatcher doorbell gap absorbs the remainder).
    EXPECT_LE(stage_sum, total + 1.0) << id->string_value();
    total_by_id[id->string_value()] = total;
  }
  for (size_t i = 0; i < singles; ++i) {
    const std::string id = "s" + std::to_string(i);
    ASSERT_EQ(total_by_id.count(id), 1u) << id;
  }
  ASSERT_EQ(total_by_id.count("b0"), 1u);
  const Json* b0 = nullptr;
  for (const Json& entry : requests) {
    if (entry.Find("id")->string_value() == "b0") b0 = &entry;
  }
  ASSERT_NE(b0, nullptr);
  EXPECT_EQ(b0->Find("kind")->string_value(), "exact");
  EXPECT_TRUE(b0->Find("batch")->bool_value());
  EXPECT_EQ(b0->Find("rows")->number_value(), 3.0);

  // The stage histograms filed the same requests exactly once.
  EXPECT_EQ(registry_.GetRollingHistogram("karl_server_total_us")
                ->CumulativeSnapshot()
                .count,
            singles + 1);

  // The access log saw the same six requests with the same totals.
  server_->Shutdown();
  server_->Wait();
  server_.reset();  // Options reference the local logger.
  const auto lines = ReadLines(access_path);
  size_t logged = 0;
  for (const std::string& line : lines) {
    auto log_entry = Json::Parse(line);
    ASSERT_TRUE(log_entry.ok()) << line;
    if (log_entry.value().Find("event")->string_value() != "request") {
      continue;
    }
    ++logged;
    const std::string id = log_entry.value().Find("id")->string_value();
    ASSERT_EQ(total_by_id.count(id), 1u) << id;
    EXPECT_EQ(log_entry.value().Find("total_us")->number_value(),
              total_by_id[id])
        << id;
  }
  EXPECT_EQ(logged, singles + 1);
}

double UnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// A raw TCP connection to 127.0.0.1:`port`, for tests that need the bare
// socket (HTTP requests, abortive close); -1 on failure.
int DialLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(ServerTest, StageHistogramsCountAdmittedRequestsAndStartTime) {
  const double before_start = UnixSeconds();
  StartServer();
  const double after_start = UnixSeconds();
  // Set once at start, before any engine attaches or query arrives.
  EXPECT_GE(GaugeValue("karl_server_start_time_seconds"), before_start);
  EXPECT_LE(GaugeValue("karl_server_start_time_seconds"), after_start);

  Client client = Dial();
  const size_t n = 4;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(client.Exact(queries_.Row(i)).ok());
  }
  // The health round trip is an event-loop barrier: every query's
  // completion (and its stage records) finished before it was framed.
  ASSERT_TRUE(Health(client).ok());
  EXPECT_GE(CounterValue("karl_server_requests_total"), n);

  std::map<std::string, telemetry::HistogramSnapshot> stages;
  for (const char* stage : {"read", "parse", "queue_wait", "coalesce_wait",
                            "eval", "serialize", "write", "total"}) {
    const telemetry::HistogramSnapshot h =
        registry_
            .GetRollingHistogram(std::string("karl_server_") + stage + "_us")
            ->CumulativeSnapshot();
    // Exactly the admitted queries: the health op never touches the
    // stage histograms.
    EXPECT_EQ(h.count, n) << stage;
    EXPECT_GE(h.Quantile(0.95), h.Quantile(0.5)) << stage;
    stages[stage] = h;
  }
  EXPECT_GT(stages["eval"].sum, 0.0);
  EXPECT_GE(stages["total"].sum, stages["eval"].sum);
}

// A completion whose peer already left is still filed, and its total
// runs until the record is filed: it never counts as a zero-latency
// request in the stage histograms (and so in the SLO budget).
TEST_F(ServerTest, CompletionForGonePeerRecordsItsFullLatency) {
  StartServer();
  server_->PauseCoalescerForTest();

  const int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  Json request = Json::Object()
                     .Set("op", Json::Str("query"))
                     .Set("kind", Json::Str("exact"));
  Json q = Json::Array();
  for (const double v : queries_.Row(0)) q.Append(Json::Number(v));
  request.Set("q", std::move(q));
  const std::string line = request.Dump() + "\n";
  ASSERT_EQ(::send(fd, line.data(), line.size(), 0),
            static_cast<ssize_t>(line.size()));
  WaitForPendingRows(1.0);

  // Reset the connection (linger 0) while the query waits in the
  // paused coalescer, and let the event loop close its side.
  const linger reset{1, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)),
            0);
  ::close(fd);
  while (GaugeValue("karl_server_connections_active") > 0.0) {
    std::this_thread::yield();
  }
  server_->ResumeCoalescerForTest();
  std::string flightz;
  while (flightz.empty()) {
    std::this_thread::yield();
    flightz = server_->FlightzNdjson();
  }
  auto record = Json::Parse(flightz.substr(0, flightz.find('\n')));
  ASSERT_TRUE(record.ok()) << flightz;
  EXPECT_FALSE(record.value().Find("ok")->bool_value()) << flightz;
  EXPECT_EQ(record.value().Find("peer"), nullptr) << flightz;
  const double queue_wait = record.value().Find("queue_wait_us")->number_value();
  EXPECT_GT(queue_wait, 0.0) << flightz;
  EXPECT_GE(record.value().Find("total_us")->number_value(), queue_wait)
      << flightz;
  const telemetry::HistogramSnapshot total =
      registry_.GetRollingHistogram("karl_server_total_us")
          ->CumulativeSnapshot();
  EXPECT_EQ(total.count, 1u);
  EXPECT_GT(total.min, 0.0);
}

// Tentpole acceptance: with a tracer attached, each request renders as
// one flow — started inside req/parse on the event-loop thread, stepped
// on the dispatcher/worker threads, ended inside req/write back on the
// event loop — so Perfetto draws a connected arrow lane per request.
TEST_F(ServerTest, TraceFlowEventsLinkRequestsAcrossThreads) {
  telemetry::TraceRecorder recorder(1u << 16);
  ServerOptions options;
  options.tracer = &recorder;
  StartServerWith(std::move(options));

  Client client = Dial();
  const size_t n = 4;
  for (size_t i = 0; i < n; ++i) {
    auto exact = client.Exact(queries_.Row(i));
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  }
  // Drain before reading the trace: the req/write span of the last
  // request is emitted after its response is flushed.
  server_->Shutdown();
  server_->Wait();
  server_.reset();  // Options reference the local recorder.

  auto trace = Json::Parse(recorder.ToJson());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const Json* events = trace.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(trace.value().Find("droppedEvents"), nullptr);
  EXPECT_EQ(trace.value().Find("droppedEvents")->number_value(), 0.0);

  struct Flow {
    int starts = 0, steps = 0, ends = 0;
    double start_tid = -1.0;
    std::set<double> step_tids;
  };
  std::map<double, Flow> flows;
  std::set<std::string> spans;
  for (const Json& event : events->items()) {
    const std::string phase = event.Find("ph")->string_value();
    if (phase == "X") {
      spans.insert(event.Find("name")->string_value());
      continue;
    }
    if (phase != "s" && phase != "t" && phase != "f") continue;
    // Perfetto matches flows by (cat, name, id).
    EXPECT_EQ(event.Find("cat")->string_value(), "req");
    EXPECT_EQ(event.Find("name")->string_value(), "req");
    Flow& flow = flows[event.Find("id")->number_value()];
    const double tid = event.Find("tid")->number_value();
    if (phase == "s") {
      ++flow.starts;
      flow.start_tid = tid;
    } else if (phase == "t") {
      ++flow.steps;
      flow.step_tids.insert(tid);
    } else {
      ++flow.ends;
      const Json* bp = event.Find("bp");
      ASSERT_NE(bp, nullptr);
      EXPECT_EQ(bp->string_value(), "e");  // Binds to enclosing slice.
    }
  }

  EXPECT_EQ(flows.size(), n);
  for (const auto& [id, flow] : flows) {
    EXPECT_EQ(flow.starts, 1) << "flow " << id;
    EXPECT_EQ(flow.ends, 1) << "flow " << id;
    EXPECT_GE(flow.steps, 1) << "flow " << id;
    bool crossed_threads = false;
    for (const double tid : flow.step_tids) {
      crossed_threads |= tid != flow.start_tid;
    }
    EXPECT_TRUE(crossed_threads) << "flow " << id;
  }
  for (const char* span : {"req/read", "req/parse", "grp/dispatch",
                           "grp/eval", "req/eval_row", "grp/serialize",
                           "req/write"}) {
    EXPECT_EQ(spans.count(span), 1u) << span;
  }
}

TEST_F(ServerTest, SlowQueryThresholdEmitsWarnWithStageBreakdown) {
  const std::string log_path = TempPath("server_slow.log");
  auto logger = util::Logger::Open(log_path, util::Logger::Options{});
  ASSERT_TRUE(logger.ok()) << logger.status().ToString();

  ServerOptions options;
  options.logger = logger.value().get();
  options.slow_query_us = 1;  // Loopback latency always crosses 1us.
  StartServerWith(std::move(options));

  Client client = Dial();
  ASSERT_TRUE(client.Exact(queries_.Row(0)).ok());
  server_->Shutdown();
  server_->Wait();
  server_.reset();  // Options reference the local logger.

  bool found = false;
  for (const std::string& line : ReadLines(log_path)) {
    if (line.find("slow_query") == std::string::npos) continue;
    found = true;
    EXPECT_NE(line.find("WARN"), std::string::npos) << line;
    EXPECT_NE(line.find("kind=\"exact\""), std::string::npos) << line;
    EXPECT_NE(line.find("eval_us="), std::string::npos) << line;
    EXPECT_NE(line.find("total_us="), std::string::npos) << line;
    EXPECT_NE(line.find("threshold_us=1"), std::string::npos) << line;
  }
  EXPECT_TRUE(found);
}

TEST(ServerJsonTest, ParseRejectsGarbageAndRoundTripsValues) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{}extra").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1e999}").ok());  // Non-finite.
  EXPECT_FALSE(Json::Parse("nulll").ok());

  auto parsed = Json::Parse(
      "{\"s\":\"a\\u00e9\\n\",\"n\":-1.25e2,\"b\":true,\"l\":[1,null]}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& root = parsed.value();
  EXPECT_EQ(root.Find("s")->string_value(), "a\xc3\xa9\n");
  EXPECT_EQ(root.Find("n")->number_value(), -125.0);
  EXPECT_TRUE(root.Find("b")->bool_value());
  EXPECT_EQ(root.Find("l")->items().size(), 2u);

  // Dump -> Parse round-trips doubles bit-exactly (%.17g).
  const double tricky = 0.1 + 0.2;
  Json value = Json::Object().Set("x", Json::Number(tricky));
  auto back = Json::Parse(value.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Find("x")->number_value(), tricky);
}

TEST(ServerProtocolTest, ParseRequestValidates) {
  EXPECT_TRUE(ParseRequest("{\"op\":\"health\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"kind\":\"tkaq\"}").ok());  // No op.
  EXPECT_FALSE(
      ParseRequest("{\"op\":\"query\",\"kind\":\"tkaq\",\"q\":[1]}").ok());
  EXPECT_FALSE(
      ParseRequest(
          "{\"op\":\"query\",\"kind\":\"ekaq\",\"eps\":0,\"q\":[1]}")
          .ok());

  auto request = ParseRequest(
      "{\"op\":\"batch\",\"kind\":\"tkaq\",\"tau\":2,"
      "\"queries\":[[1,2],[3,4]],\"id\":\"z\"}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().op, Request::Op::kBatch);
  EXPECT_EQ(request.value().kind, QueryKind::kTkaq);
  EXPECT_EQ(request.value().param, 2.0);
  EXPECT_EQ(request.value().queries.rows(), 2u);
  EXPECT_EQ(request.value().queries.cols(), 2u);
  EXPECT_EQ(request.value().id, "z");

  // Status beyond health is the admin plane's: metrics and statusz are
  // unknown ops, and the error lists the ops that remain.
  for (const char* op : {"metrics", "statusz"}) {
    auto refused =
        ParseRequest(std::string("{\"op\":\"") + op + "\"}");
    ASSERT_FALSE(refused.ok()) << op;
    EXPECT_NE(refused.status().message().find("unknown op"),
              std::string::npos)
        << refused.status().ToString();
    EXPECT_NE(refused.status().message().find(
                  "(query|batch|explain|health|reload)"),
              std::string::npos)
        << refused.status().ToString();
  }
}


// ---------------------------------------------------------------------------
// HTTP admin plane (PR 7 tentpole). The admin listener speaks plain
// HTTP/1.1 with Connection: close, so a raw socket that sends one
// request and reads to EOF is a complete client.

std::string HttpFetch(int port, const std::string& raw_request) {
  const int fd = DialLoopback(port);
  if (fd < 0) return "";
  size_t sent = 0;
  while (sent < raw_request.size()) {
    const ssize_t n = ::send(fd, raw_request.data() + sent,
                             raw_request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string HttpGet(int port, const std::string& target) {
  return HttpFetch(port, "GET " + target + " HTTP/1.1\r\nHost: karl\r\n\r\n");
}

TEST_F(ServerTest, AdminEndpointsServeUnderConcurrentTraffic) {
  ServerOptions options;
  options.admin_port = 0;  // Ephemeral.
  StartServerWith(std::move(options));
  const int admin_port = server_->admin_port();
  ASSERT_GT(admin_port, 0);

  // Keep query traffic in flight on the data plane while scraping.
  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};
  std::thread traffic([this, &stop, &answered] {
    auto client = Client::Connect("127.0.0.1", server_->port());
    if (!client.ok()) return;
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (client.value().Exact(queries_.Row(i++ % queries_.rows())).ok()) {
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // The pages below describe a server that has answered a query (the
  // model resident, stage histograms fed), so scrape after the first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (answered.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(answered.load(std::memory_order_relaxed), 0u);

  const std::string health = HttpGet(admin_port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos) << health;
  EXPECT_NE(health.find("serving"), std::string::npos) << health;

  const std::string metrics = HttpGet(admin_port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("karl_server_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("karl_server_batches_total"), std::string::npos);
  // The pool exports saturation gauges once attached (at Start).
  EXPECT_NE(metrics.find("karl_pool_queue_depth"), std::string::npos);
  EXPECT_NE(metrics.find("karl_pool_active_workers"), std::string::npos);
  // Rolling stage histograms export cumulative + windowed twins...
  EXPECT_NE(metrics.find("karl_server_total_us{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("karl_server_total_us_window60s"),
            std::string::npos);
  // ...and the build-info gauge carries its labels, next to the SIMD
  // tier and the start time (set at start, before any engine attaches).
  const size_t build_info = metrics.find("karl_build_info{version=");
  ASSERT_NE(build_info, std::string::npos);
  const std::string build_info_line =
      metrics.substr(build_info, metrics.find('\n', build_info) - build_info);
  EXPECT_NE(build_info_line.find("git_sha="), std::string::npos)
      << build_info_line;
  EXPECT_NE(metrics.find("\nkarl_simd_tier "), std::string::npos);
  EXPECT_NE(metrics.find("\nkarl_server_start_time_seconds "),
            std::string::npos);

  // One page per fact: the retired status pages are gone.
  for (const char* retired : {"/statusz", "/varz"}) {
    const std::string page = HttpGet(admin_port, retired);
    EXPECT_NE(page.find("HTTP/1.1 404"), std::string::npos) << page;
  }

  // /modelz carries the resident model's shape.
  const std::string modelz = HttpGet(admin_port, "/modelz");
  EXPECT_NE(modelz.find("HTTP/1.1 200"), std::string::npos);
  const size_t modelz_body = modelz.find("\r\n\r\n");
  ASSERT_NE(modelz_body, std::string::npos);
  auto modelz_json = Json::Parse(modelz.substr(modelz_body + 4));
  ASSERT_TRUE(modelz_json.ok()) << modelz.substr(modelz_body + 4);
  const Json* models = modelz_json.value().Find("models");
  ASSERT_NE(models, nullptr);
  ASSERT_EQ(models->items().size(), 1u);
  const Json& model = models->items()[0];
  EXPECT_EQ(model.Find("dims")->number_value(),
            static_cast<double>(points_.cols()));
  EXPECT_EQ(model.Find("points")->number_value(),
            static_cast<double>(points_.rows()));
  EXPECT_EQ(model.Find("weighting_type")->string_value(),
            WeightingTypeToString(engine_->weighting_type()));
  EXPECT_EQ(model.Find("bounds")->string_value(),
            core::BoundKindToString(engine_->options().bounds));

  const std::string flightz = HttpGet(admin_port, "/flightz");
  EXPECT_NE(flightz.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(flightz.find("application/x-ndjson"), std::string::npos);

  stop.store(true, std::memory_order_relaxed);
  traffic.join();
}

TEST_F(ServerTest, AdminRejectsUnknownPathWrongMethodAndOversizedHead) {
  ServerOptions options;
  options.admin_port = 0;
  StartServerWith(std::move(options));
  const int admin_port = server_->admin_port();
  ASSERT_GT(admin_port, 0);

  const std::string missing = HttpGet(admin_port, "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos) << missing;
  // The 404 body lists the registered paths, self-documenting the plane.
  EXPECT_NE(missing.find("/metrics"), std::string::npos) << missing;

  const std::string post = HttpFetch(
      admin_port, "POST /metrics HTTP/1.1\r\nHost: karl\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos) << post;
  EXPECT_NE(post.find("Allow: GET"), std::string::npos) << post;

  // A request head larger than the admin cap is refused, not buffered.
  const std::string oversized = HttpFetch(
      admin_port, "GET /healthz HTTP/1.1\r\nX-Pad: " +
                      std::string(16 * 1024, 'x') + "\r\n\r\n");
  EXPECT_NE(oversized.find("HTTP/1.1 431"), std::string::npos) << oversized;

  // The plane survives all three rejections.
  EXPECT_NE(HttpGet(admin_port, "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// EXPLAIN op (PR 7 tentpole): the profile rides the normal protocol and
// reconciles with what a local evaluator run reports.

TEST_F(ServerTest, ExplainQueryReturnsProfileReconcilingWithLocalStats) {
  ServerOptions options;
  options.admin_port = 0;
  StartServerWith(std::move(options));
  Client client = Dial();

  const auto q = queries_.Row(0);
  Json request = Json::Object()
                     .Set("op", Json::Str("explain"))
                     .Set("kind", Json::Str("tkaq"))
                     .Set("tau", Json::Number(kTau))
                     .Set("id", Json::Str("e0"));
  Json row = Json::Array();
  for (const double v : q) row.Append(Json::Number(v));
  request.Set("q", std::move(row));
  ASSERT_TRUE(client.SendLine(request.Dump()).ok());
  auto line = client.ReceiveLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  auto response = Json::Parse(line.value());
  ASSERT_TRUE(response.ok()) << line.value();

  const Json* above = response.value().Find("above");
  ASSERT_NE(above, nullptr) << line.value();
  EXPECT_EQ(above->bool_value(), engine_->Tkaq(q, kTau));

  const Json* explain = response.value().Find("explain");
  ASSERT_NE(explain, nullptr) << line.value();
  // The server's profile must agree with a local run of the very same
  // deterministic traversal.
  core::EvalStats stats;
  engine_->evaluator().QueryThreshold(q, kTau, &stats);
  const Json* iterations = explain->Find("iterations");
  const Json* expanded = explain->Find("nodes_expanded");
  const Json* kernel_evals = explain->Find("kernel_evals");
  ASSERT_NE(iterations, nullptr);
  ASSERT_NE(expanded, nullptr);
  ASSERT_NE(kernel_evals, nullptr);
  EXPECT_EQ(static_cast<size_t>(iterations->number_value()),
            stats.iterations);
  EXPECT_EQ(static_cast<size_t>(expanded->number_value()),
            stats.nodes_expanded);
  EXPECT_EQ(static_cast<size_t>(kernel_evals->number_value()),
            stats.kernel_evals);
  const Json* levels = explain->Find("levels");
  ASSERT_NE(levels, nullptr);
  EXPECT_FALSE(levels->items().empty());
  const Json* timeline = explain->Find("timeline");
  ASSERT_NE(timeline, nullptr);
  EXPECT_FALSE(timeline->items().empty());

  // ekaq explain: the profiled answer is still the bit-identical value.
  Json ekaq = Json::Object()
                  .Set("op", Json::Str("explain"))
                  .Set("kind", Json::Str("ekaq"))
                  .Set("eps", Json::Number(kEps))
                  .Set("id", Json::Str("e1"));
  Json row2 = Json::Array();
  for (const double v : q) row2.Append(Json::Number(v));
  ekaq.Set("q", std::move(row2));
  ASSERT_TRUE(client.SendLine(ekaq.Dump()).ok());
  auto line2 = client.ReceiveLine();
  ASSERT_TRUE(line2.ok()) << line2.status().ToString();
  auto response2 = Json::Parse(line2.value());
  ASSERT_TRUE(response2.ok()) << line2.value();
  const Json* value = response2.value().Find("value");
  ASSERT_NE(value, nullptr) << line2.value();
  EXPECT_EQ(value->number_value(), engine_->Ekaq(q, kEps));

  // Both explains landed in the admin ring, newest first. The loop files
  // a request after flushing its reply; it has filed e1 before it can
  // frame this health request.
  ASSERT_TRUE(Health(client).ok());
  const std::string explainz =
      HttpGet(server_->admin_port(), "/explainz?last=8");
  EXPECT_NE(explainz.find("HTTP/1.1 200"), std::string::npos);
  const size_t body = explainz.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  auto parsed = Json::Parse(explainz.substr(body + 4));
  ASSERT_TRUE(parsed.ok()) << explainz.substr(body + 4);
  EXPECT_NE(explainz.find("\"explains\""), std::string::npos);
  EXPECT_NE(explainz.find("\"e0\""), std::string::npos);
  EXPECT_NE(explainz.find("\"e1\""), std::string::npos);
  EXPECT_NE(explainz.find("\"kernel_evals\""), std::string::npos);
}

TEST_F(ServerTest, ExplainOnExactKindIsRejectedUpFront) {
  StartServer();
  Client client = Dial();
  Json request = Json::Object()
                     .Set("op", Json::Str("explain"))
                     .Set("kind", Json::Str("exact"));
  Json row = Json::Array();
  for (const double v : queries_.Row(0)) row.Append(Json::Number(v));
  request.Set("q", std::move(row));
  ASSERT_TRUE(client.SendLine(request.Dump()).ok());
  auto line = client.ReceiveLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_NE(line.value().find("bad_request"), std::string::npos)
      << line.value();
}

// Satellite 3: shed requests are attributed in the access log with peer
// and an explicit disposition, alongside the admitted records.
TEST_F(ServerTest, AccessLogAttributesShedAndAdmittedDispositions) {
  const std::string access_path = TempPath("server_access_shed.ndjson");
  util::Logger::Options access_options;
  access_options.ndjson = true;
  auto access_log = util::Logger::Open(access_path, access_options);
  ASSERT_TRUE(access_log.ok()) << access_log.status().ToString();
  // The server writes to `access_log` until it stops, so it must go
  // first on every way out of this test, an ASSERT's early return too.
  struct StopServerFirst {
    std::unique_ptr<Server>& server;
    ~StopServerFirst() { server.reset(); }
  } stop_server_first{server_};

  ServerOptions options;
  options.access_log = access_log.value().get();
  options.max_pending = 2;
  StartServerWith(std::move(options));
  server_->PauseCoalescerForTest();

  Client client = Dial();
  const size_t total = 6;
  // One write for the whole burst (see OverloadSheds... above): all six
  // admission decisions happen before any response is flushed.
  std::string burst;
  for (size_t i = 0; i < total; ++i) {
    Json request = Json::Object()
                       .Set("op", Json::Str("query"))
                       .Set("kind", Json::Str("exact"))
                       .Set("id", Json::Str("q" + std::to_string(i)));
    Json q = Json::Array();
    for (const double v : queries_.Row(i)) q.Append(Json::Number(v));
    request.Set("q", std::move(q));
    burst += request.Dump() + "\n";
  }
  ASSERT_TRUE(client.SendLine(burst).ok());
  size_t shed = 0;
  for (size_t i = 0; i < total; ++i) {
    auto line = client.ReceiveLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    if (line.value().find("overloaded") != std::string::npos) ++shed;
    // The first reply arrives while the coalescer is still paused, so it
    // is a shed error: no admitted request can be answered before this
    // resume, and none can drain to make room for a later line.
    if (i == 0) server_->ResumeCoalescerForTest();
  }
  ASSERT_GT(shed, 0u);
  server_->Shutdown();
  server_->Wait();

  size_t shed_records = 0, admitted_records = 0;
  for (const std::string& record : ReadLines(access_path)) {
    if (record.find("\"disposition\":\"shed\"") != std::string::npos) {
      ++shed_records;
      EXPECT_NE(record.find("\"shed_code\":\"overloaded\""),
                std::string::npos)
          << record;
      EXPECT_NE(record.find("\"peer\""), std::string::npos) << record;
    } else if (record.find("\"disposition\":\"admitted\"") !=
               std::string::npos) {
      ++admitted_records;
      EXPECT_NE(record.find("\"peer\""), std::string::npos) << record;
    }
  }
  EXPECT_EQ(shed_records, shed);
  EXPECT_EQ(admitted_records, total - shed);
}

// ------------------------------------------------- registry serving

// Builds a Type I engine over seeded clustered points (4 dims, so the
// fixture's queries_ fit all registry models).
Engine BuildRegistryModel(uint64_t seed, size_t rows, double gamma) {
  util::Rng rng(seed);
  const data::Matrix points = data::SampleClustered(rows, 4, 3, 0.08, rng);
  EngineOptions options;
  options.kernel = core::KernelParams::Gaussian(gamma);
  options.leaf_capacity = 24;
  auto built = Engine::BuildUniform(points, 1.0, options);
  KARL_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).ValueOrDie();
}

// Fresh empty directory under the test temp root.
std::string FreshModelDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Json ExactQueryRequest(std::span<const double> q,
                       const std::string& model) {
  Json row = Json::Array();
  for (const double v : q) row.Append(Json::Number(v));
  Json request = Json::Object()
                     .Set("op", Json::Str("query"))
                     .Set("kind", Json::Str("exact"))
                     .Set("q", std::move(row));
  if (!model.empty()) request.Set("model", Json::Str(model));
  return request;
}

// Acceptance: a registry-backed server answers named queries with each
// model's own engine, bit-identical to what a single-model server over
// that engine would return; unnamed queries go to the default and
// unknown names get the typed not_found error.
TEST_F(ServerTest, RegistryServerAnswersNamedModelsBitIdentically) {
  const Engine alpha = BuildRegistryModel(31, 400, 3.0);
  const Engine beta = BuildRegistryModel(33, 300, 2.0);
  const std::string dir = FreshModelDir("karl_server_registry_models");
  ASSERT_TRUE(registry::WriteSnapshot(dir + "/alpha.snap", alpha).ok());
  ASSERT_TRUE(registry::WriteSnapshot(dir + "/beta.snap", beta).ok());

  registry::RegistryOptions registry_options;
  registry_options.default_model = "alpha";
  registry_options.metrics = &registry_;
  auto models = registry::ModelRegistry::Open(dir, registry_options);
  ASSERT_TRUE(models.ok()) << models.status().ToString();

  ServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.metrics = &registry_;
  auto server = Server::StartWithRegistry(models.value().get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server_ = std::move(server).ValueOrDie();

  Client client = Dial();
  for (size_t i = 0; i < 8; ++i) {
    const auto q = queries_.Row(i);
    for (const auto& [name, engine] :
         {std::pair<std::string, const Engine*>{"alpha", &alpha},
          {"beta", &beta},
          {"", &alpha}}) {  // "" = default model.
      auto response = client.RoundTrip(ExactQueryRequest(q, name));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const Json* value = response.value().Find("value");
      ASSERT_NE(value, nullptr) << response.value().Dump();
      EXPECT_EQ(value->number_value(), engine->Exact(q))
          << "model '" << name << "' query " << i;
    }
  }

  // Unknown model: typed not_found naming the known models.
  auto missing =
      client.RoundTrip(ExactQueryRequest(queries_.Row(0), "gamma"));
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  const Json* error = missing.value().Find("error");
  ASSERT_NE(error, nullptr) << missing.value().Dump();
  EXPECT_EQ(error->string_value(), "not_found");
  const Json* detail = missing.value().Find("detail");
  ASSERT_NE(detail, nullptr);
  EXPECT_NE(detail->string_value().find("alpha"), std::string::npos)
      << detail->string_value();
}

// Acceptance: a hot reload (replace-by-rename + op=reload) while
// clients are mid-flight loses no requests — every answer arrives and
// is bit-identical to either the old or the new model, never anything
// else; afterwards new queries see the new model.
TEST_F(ServerTest, HotReloadLosesNoInFlightRequests) {
  const Engine v1 = BuildRegistryModel(41, 400, 3.0);
  const Engine v2 = BuildRegistryModel(43, 300, 3.0);
  const std::string dir = FreshModelDir("karl_server_reload_models");
  ASSERT_TRUE(registry::WriteSnapshot(dir + "/m.snap", v1).ok());

  registry::RegistryOptions registry_options;
  registry_options.metrics = &registry_;
  auto models = registry::ModelRegistry::Open(dir, registry_options);
  ASSERT_TRUE(models.ok()) << models.status().ToString();

  ServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.metrics = &registry_;
  auto server = Server::StartWithRegistry(models.value().get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server_ = std::move(server).ValueOrDie();

  // Per-query answers of both generations, computed up front so worker
  // threads only compare.
  const size_t num_queries = 16;
  std::vector<double> expected_v1(num_queries);
  std::vector<double> expected_v2(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    expected_v1[i] = v1.Exact(queries_.Row(i));
    expected_v2[i] = v2.Exact(queries_.Row(i));
  }

  std::atomic<size_t> answered{0};
  std::atomic<size_t> wrong{0};
  std::atomic<bool> go_reload{false};
  const size_t kThreads = 4;
  const size_t kItersPerThread = 60;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Client client = Dial();
      for (size_t iter = 0; iter < kItersPerThread; ++iter) {
        if (t == 0 && iter == kItersPerThread / 4) go_reload = true;
        const size_t qi = (t + iter) % num_queries;
        auto value = client.Exact(queries_.Row(qi));
        if (!value.ok()) continue;  // A drop; stays visible in `answered`.
        answered.fetch_add(1);
        if (value.value() != expected_v1[qi] &&
            value.value() != expected_v2[qi]) {
          wrong.fetch_add(1);
        }
      }
    });
  }

  // Mid-storm: write the new generation next to the old and swap it in
  // atomically (rename), then reload through the protocol op.
  while (!go_reload.load()) std::this_thread::yield();
  ASSERT_TRUE(registry::WriteSnapshot(dir + "/m.snap.tmp", v2).ok());
  std::filesystem::rename(dir + "/m.snap.tmp", dir + "/m.snap");
  Client admin = Dial();
  auto reloaded =
      admin.RoundTrip(Json::Object().Set("op", Json::Str("reload")));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const Json* status = reloaded.value().Find("status");
  ASSERT_NE(status, nullptr) << reloaded.value().Dump();
  EXPECT_EQ(status->string_value(), "reloaded");

  for (std::thread& worker : workers) worker.join();
  // Zero dropped, zero foreign answers.
  EXPECT_EQ(answered.load(), kThreads * kItersPerThread);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(models.value()->reloads(), 1u);

  // The storm has passed; fresh queries serve the new generation.
  Client after = Dial();
  for (size_t i = 0; i < 4; ++i) {
    auto value = after.Exact(queries_.Row(i));
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(value.value(), expected_v2[i]);
  }
}

// First value of the exact exposition series `series` (label block and
// suffix included) in a /metrics body; -1 when absent.
double MetricValue(const std::string& body, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const size_t pos = body.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + pos + needle.size(), nullptr);
}

// Acceptance (per-model observability): with two models under load,
// /metrics exposes karl_serving_eval_us{model=...} per model (cumulative
// and _window60s) whose counts reconcile exactly against the global
// stage histogram, and /sloz shows the model violating its latency
// objective burning error budget while the healthy model keeps a full
// budget — with the burn WARN edge in the structured log.
TEST_F(ServerTest, PerModelMetricsReconcileAndSloBudgetBurnsForSlowModel) {
  const Engine alpha = BuildRegistryModel(51, 400, 3.0);
  const Engine beta = BuildRegistryModel(53, 300, 2.0);
  const std::string dir = FreshModelDir("karl_server_per_model_slo");
  ASSERT_TRUE(registry::WriteSnapshot(dir + "/alpha.snap", alpha).ok());
  ASSERT_TRUE(registry::WriteSnapshot(dir + "/beta.snap", beta).ok());

  registry::RegistryOptions registry_options;
  registry_options.default_model = "alpha";
  registry_options.metrics = &registry_;
  auto models = registry::ModelRegistry::Open(dir, registry_options);
  ASSERT_TRUE(models.ok()) << models.status().ToString();

  const std::string log_path = TempPath("karl_server_slo_burn.log");
  util::Logger::Options log_options;
  log_options.ndjson = true;
  auto logger = util::Logger::Open(log_path, log_options);
  ASSERT_TRUE(logger.ok()) << logger.status().ToString();

  ServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.metrics = &registry_;
  options.admin_port = 0;
  options.logger = logger.value().get();
  // Alpha's objective is unmissable; beta's latency threshold is below
  // any real request, so every beta query burns its error budget.
  options.slo.default_objective.latency_threshold_us = 1e9;
  telemetry::SloObjective tight;
  tight.latency_threshold_us = 0.001;
  options.slo.per_model["beta"] = tight;
  auto server = Server::StartWithRegistry(models.value().get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server_ = std::move(server).ValueOrDie();
  const int admin_port = server_->admin_port();
  ASSERT_GT(admin_port, 0);

  constexpr size_t kPerModel = 20;
  Client client = Dial();
  for (size_t i = 0; i < kPerModel; ++i) {
    for (const char* name : {"alpha", "beta"}) {
      auto response =
          client.RoundTrip(ExactQueryRequest(queries_.Row(i), name));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_NE(response.value().Find("value"), nullptr)
          << response.value().Dump();
    }
  }
  // Unnamed requests run on the default model and are attributed to
  // it by name, never to "".
  constexpr size_t kUnnamed = 5;
  for (size_t i = 0; i < kUnnamed; ++i) {
    Json request = ExactQueryRequest(queries_.Row(i), "");
    request.Set("id", Json::Str("unnamed-" + std::to_string(i)));
    auto response = client.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_NE(response.value().Find("value"), nullptr)
        << response.value().Dump();
  }

  // The labeled serving series reconcile against the global histogram:
  // per-model counts are exact and sum to the unlabeled family.
  const std::string metrics = HttpGet(admin_port, "/metrics");
  const size_t metrics_body_at = metrics.find("\r\n\r\n");
  ASSERT_NE(metrics_body_at, std::string::npos);
  const std::string body = metrics.substr(metrics_body_at + 4);
  const double alpha_count =
      MetricValue(body, "karl_serving_eval_us_count{model=\"alpha\"}");
  const double beta_count =
      MetricValue(body, "karl_serving_eval_us_count{model=\"beta\"}");
  const double global_count = MetricValue(body, "karl_server_eval_us_count");
  EXPECT_EQ(alpha_count, static_cast<double>(kPerModel + kUnnamed))
      << body;
  EXPECT_EQ(beta_count, static_cast<double>(kPerModel)) << body;
  EXPECT_EQ(alpha_count + beta_count, global_count);
  EXPECT_NE(body.find("karl_serving_requests_total{model=\"alpha\"} 25"),
            std::string::npos);
  EXPECT_EQ(body.find("model=\"\""), std::string::npos) << body;
  EXPECT_NE(body.find("karl_serving_eval_us{model=\"alpha\",quantile="),
            std::string::npos);
  EXPECT_NE(
      body.find("karl_serving_eval_us_window60s{model=\"beta\",quantile="),
      std::string::npos);
  EXPECT_NE(body.find("karl_serving_requests_total{model=\"beta\"} 20"),
            std::string::npos);
  // Burn gauges exported with the full {model,slo,window} label set.
  EXPECT_NE(body.find("karl_slo_burn_rate{model=\"beta\",slo=\"latency\","
                      "window=\"fast\"}"),
            std::string::npos);

  // /sloz: beta's latency budget is visibly burning, alpha's is intact.
  const std::string sloz = HttpGet(admin_port, "/sloz");
  EXPECT_NE(sloz.find("HTTP/1.1 200"), std::string::npos);
  const size_t sloz_body_at = sloz.find("\r\n\r\n");
  ASSERT_NE(sloz_body_at, std::string::npos);
  auto sloz_json = Json::Parse(sloz.substr(sloz_body_at + 4));
  ASSERT_TRUE(sloz_json.ok()) << sloz.substr(sloz_body_at + 4);
  const Json* sloz_models = sloz_json.value().Find("models");
  ASSERT_NE(sloz_models, nullptr);
  const Json* beta_slo = sloz_models->Find("beta");
  ASSERT_NE(beta_slo, nullptr) << sloz.substr(sloz_body_at + 4);
  const Json* beta_latency = beta_slo->Find("latency");
  ASSERT_NE(beta_latency, nullptr);
  EXPECT_TRUE(beta_latency->Find("burning")->bool_value());
  EXPECT_LT(beta_latency->Find("budget_remaining")->number_value(), 1.0);
  EXPECT_GE(beta_latency->Find("burn_rate_fast")->number_value(),
            tight.fast_burn_threshold);
  const Json* alpha_latency = sloz_models->Find("alpha")->Find("latency");
  ASSERT_NE(alpha_latency, nullptr);
  EXPECT_FALSE(alpha_latency->Find("burning")->bool_value());
  EXPECT_EQ(alpha_latency->Find("budget_remaining")->number_value(), 1.0);

  // The flight recorder attributes every request to its model, the
  // unnamed ones to the default.
  const std::string flightz = HttpGet(admin_port, "/flightz");
  EXPECT_NE(flightz.find("\"model\":\"alpha\""), std::string::npos);
  EXPECT_NE(flightz.find("\"model\":\"beta\""), std::string::npos);
  const size_t flightz_body_at = flightz.find("\r\n\r\n");
  ASSERT_NE(flightz_body_at, std::string::npos);
  size_t unnamed_records = 0;
  for (size_t begin = flightz_body_at + 4; begin < flightz.size();) {
    const size_t end = flightz.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << flightz;
    auto record = Json::Parse(flightz.substr(begin, end - begin));
    ASSERT_TRUE(record.ok()) << flightz;
    begin = end + 1;
    const Json* id = record.value().Find("id");
    if (id == nullptr || id->string_value().rfind("unnamed-", 0) != 0) {
      continue;
    }
    ++unnamed_records;
    EXPECT_EQ(record.value().Find("model")->string_value(), "alpha")
        << record.value().Dump();
  }
  EXPECT_EQ(unnamed_records, kUnnamed);

  // /modelz carries the per-model resident/generation view.
  const std::string modelz = HttpGet(admin_port, "/modelz");
  EXPECT_NE(modelz.find("\"models\""), std::string::npos) << modelz;
  EXPECT_NE(modelz.find("\"resident_bytes\""), std::string::npos);
  EXPECT_NE(modelz.find("\"generation\""), std::string::npos);

  // Crossing the burn threshold logged exactly one WARN edge for beta.
  server_->Shutdown();
  server_->Wait();
  server_.reset();  // Options reference the local logger.
  size_t burn_lines = 0;
  for (const std::string& line : ReadLines(log_path)) {
    if (line.find("\"event\":\"slo.burn\"") != std::string::npos) {
      ++burn_lines;
      EXPECT_NE(line.find("\"model\":\"beta\""), std::string::npos) << line;
    }
  }
  EXPECT_EQ(burn_lines, 1u);
}

// ---------------------------------------------------------------------------
// Wire path: line framing.

// Writes all of `data` to `fd`.
bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), 0);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

// Reads `count` newline-terminated lines from `fd` (fewer on EOF).
std::vector<std::string> ReceiveLines(int fd, size_t count) {
  std::vector<std::string> lines;
  std::string pending;
  char buf[65536];
  while (lines.size() < count) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    pending.append(buf, static_cast<size_t>(n));
    size_t begin = 0;
    for (size_t end; (end = pending.find('\n', begin)) != std::string::npos;
         begin = end + 1) {
      lines.push_back(pending.substr(begin, end - begin));
    }
    pending.erase(0, begin);
  }
  return lines;
}

// Thousands of pipelined lines, cut into writes at arbitrary bytes (so
// lines straddle reads), all come back answered under their own id.
TEST_F(ServerTest, PipelinedBurstSplitAcrossWritesAnswersEveryLineById) {
  const size_t n = 3000;
  StartServer(/*max_pending=*/n);
  std::string burst;
  std::vector<double> expected(n);
  for (size_t i = 0; i < n; ++i) {
    const auto q = queries_.Row(i % queries_.rows());
    const std::string id = "p" + std::to_string(i);
    if (i % 2 == 0) {
      burst += ExactLine(q, id);
      expected[i] = engine_->Exact(q);
    } else {
      Json request = Json::Object()
                         .Set("op", Json::Str("query"))
                         .Set("kind", Json::Str("ekaq"))
                         .Set("eps", Json::Number(kEps))
                         .Set("id", Json::Str(id));
      Json row = Json::Array();
      for (const double v : q) row.Append(Json::Number(v));
      request.Set("q", std::move(row));
      burst += request.Dump();
      expected[i] = engine_->Ekaq(q, kEps);
    }
    burst += i % 7 == 0 ? "\r\n" : "\n";
  }

  const int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  util::Rng rng(99);
  size_t writes = 0;
  for (size_t begin = 0; begin < burst.size(); ++writes) {
    const size_t size = std::min(
        burst.size() - begin,
        static_cast<size_t>(1 + rng.Uniform(0.0, 1.0) * 20000.0));
    ASSERT_TRUE(SendAll(fd, std::string_view(burst).substr(begin, size)));
    begin += size;
    // Now and then let the server drain what it has, so a read ends
    // inside a line.
    if (writes % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const std::vector<std::string> lines = ReceiveLines(fd, n);
  ::close(fd);
  ASSERT_EQ(lines.size(), n);

  std::vector<int> seen(n, 0);
  for (const std::string& line : lines) {
    auto reply = Json::Parse(line);
    ASSERT_TRUE(reply.ok()) << line;
    ASSERT_TRUE(reply.value().Find("ok")->bool_value()) << line;
    const std::string id = reply.value().Find("id")->string_value();
    const size_t i = std::stoul(id.substr(1));
    ASSERT_LT(i, n) << line;
    ++seen[i];
    EXPECT_EQ(reply.value().Find("value")->number_value(), expected[i])
        << line;
  }
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << "p" << i;
  EXPECT_EQ(CounterValue("karl_server_queries_total"), n);
  // Pipelined lines coalesced into shared groups.
  EXPECT_LT(CounterValue("karl_server_batches_total"), n);
}

}  // namespace
}  // namespace karl::server
