// serve_mixed: copift_serve's Server on loopback, driven in a closed loop
// from this process (serve clients are sweep scripts that wait for each
// reply) over two connections, plus the one-connection serve probe the
// traced engine workloads use.
#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "calib.hpp"
#include "common/error.hpp"
#include "layers.hpp"
#include "model.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace copift;
using workload::Variant;

namespace {

constexpr std::size_t kMaxPoints = 65536;
/// Two client connections against a server with one engine thread: the
/// mixed connection (0) asks for repeats and single points one at a time;
/// the sweep connection (1) is a sweep script that sends one 16-point sweep
/// per round.
constexpr unsigned kConnections = 2;
constexpr unsigned kMixed = 0;
constexpr unsigned kSweeper = 1;
/// Processors the process is pinned to at a time: the server's scheduler
/// thread simulates, the clients and the server's readers mostly wait.
constexpr unsigned kBusyThreads = 2;
/// Rounds per batch; a batch is one window.
constexpr unsigned kRoundsPerBatch = 8;

/// One blocking client connection speaking serve's line protocol.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw Error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string what = std::strerror(errno);
      ::close(fd);
      throw Error("connect to 127.0.0.1:" + std::to_string(port) + ": " + what);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conn_ = std::make_unique<serve::Connection>(fd);  // owns fd from here on
  }

  /// Send `line` and return the first event for `id` that is not
  /// "accepted": the result, error, health or stats line.
  std::string roundtrip(const std::string& line, std::uint64_t id) {
    send(line);
    return await(id);
  }

  void send(const std::string& line) {
    if (!conn_->send_line(line)) throw Error("send failed: server closed the connection");
  }

  /// The first event for `id` that is not "accepted".
  std::string await(std::uint64_t id) {
    const std::string prefix = "{\"id\":" + std::to_string(id) + ",\"event\":\"";
    std::string reply;
    while (true) {
      const auto status = conn_->read_line(reply, -1, 60000, std::size_t{1} << 26);
      if (status != serve::Connection::ReadStatus::kLine) {
        throw Error("connection lost waiting for request " + std::to_string(id));
      }
      if (reply.compare(0, prefix.size(), prefix) != 0) continue;
      if (reply.compare(prefix.size(), 9, "accepted\"") == 0) continue;
      return reply;
    }
  }

 private:
  std::unique_ptr<serve::Connection> conn_;
};

/// The fields of a result event the benchmark checks, read without a full
/// JSON parse so the client stays cheap next to the server. `rows` views
/// into the line given to read_reply().
struct Reply {
  bool ok = false;
  std::string_view rows;
  double elapsed_ms = 0.0;
  std::uint64_t hits = 0, coalesced = 0, simulated = 0;
  std::uint64_t row_count = 0;
  double cycles = 0.0;
};

Reply read_reply(std::string_view line) {
  Reply r;
  const auto rows_at = line.find("\"event\":\"result\",\"rows\":");
  const auto elapsed_at = line.rfind(",\"elapsed_ms\":");
  if (rows_at == std::string_view::npos || elapsed_at == std::string_view::npos) return r;
  const auto rows_begin = rows_at + std::strlen("\"event\":\"result\",\"rows\":");
  r.rows = line.substr(rows_begin, elapsed_at - rows_begin);
  const std::string tail(line.substr(elapsed_at));
  unsigned long long h = 0, c = 0, s = 0;
  if (std::sscanf(tail.c_str(), ",\"elapsed_ms\":%lf,\"cache\":{\"hits\":%llu,\"coalesced\":%llu,"
                  "\"simulated\":%llu}}", &r.elapsed_ms, &h, &c, &s) != 4) {
    return r;
  }
  r.hits = h;
  r.coalesced = c;
  r.simulated = s;
  for (auto at = r.rows.find(",\"cycles\":"); at != std::string_view::npos;
       at = r.rows.find(",\"cycles\":", at + 1)) {
    ++r.row_count;
    r.cycles += std::strtod(std::string(r.rows.substr(at + 10, 24)).c_str(), nullptr);
  }
  r.ok = true;
  return r;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

double stats_field(const std::string& stats_line, const char* object, const char* key) {
  const auto doc = serve::Json::parse(stats_line);
  const serve::Json& where = object != nullptr ? doc.at(object) : doc;
  return where.at(key).as_number();
}

// --- the request mix ----------------------------------------------------------

enum class Kind { kRepeat, kSingle, kSweep };

/// The mixed connection's part of a round, in order: 8 repeats of the
/// cached sweep and 3 single points. The round starts with the sweep
/// connection sending its 16-point sweep; the first repeat is sent right
/// after it, so it waits behind the sweep (the second, if the sweep's
/// request reaches the scheduler later than the first repeat), and the rest
/// of the round finds the engine idle.
constexpr Kind kMixedRound[] = {Kind::kRepeat, Kind::kRepeat, Kind::kSingle, Kind::kRepeat,
                                Kind::kRepeat, Kind::kSingle, Kind::kRepeat, Kind::kRepeat,
                                Kind::kSingle, Kind::kRepeat, Kind::kRepeat};

struct SinglePoint {
  const char* workload;
  Variant variant;
};
constexpr SinglePoint kSingles[] = {
    {"axpy", Variant::kCopift}, {"exp", Variant::kCopift}, {"pi_lcg", Variant::kBaseline}};
constexpr std::uint32_t kSmallN = 256;
constexpr std::uint32_t kSingleBlock = 32;

/// The cached sweep every repeat asks for: both paper variants of exp and
/// log, so the model metrics have pairs to compare.
engine::Experiment repeat_grid(std::uint32_t seed) {
  engine::Experiment e;
  e.over({"exp", "log"}).over({Variant::kBaseline, Variant::kCopift}).n(384).block(96).seed(seed);
  return e;
}

engine::Experiment single_grid(const SinglePoint& p, std::uint32_t seed) {
  engine::Experiment e;
  e.over(p.workload).over(p.variant).n(kSmallN).block(kSingleBlock).seed(seed);
  return e;
}

engine::Experiment sweep_grid(std::uint32_t seed_a, std::uint32_t seed_b) {
  engine::Experiment e;
  e.over({"log", "poly_lcg"})
      .over({Variant::kBaseline, Variant::kCopift})
      .n(kSmallN)
      .sweep({32, 64})
      .sweep_seeds({seed_a, seed_b});
  return e;
}

/// Seeds no other request of the run uses: the top four bits name the
/// connection (the cached sweep's seed has them clear), the rest count up
/// from a start drawn from the run seed.
class FreshSeeds {
 public:
  FreshSeeds(std::uint32_t run_seed, unsigned connection)
      : high_((connection + 1) << 28), next_(derive_seed(run_seed, 100 + connection)) {}
  std::uint32_t next() { return high_ | (next_++ & 0x0FFFFFFFU); }

 private:
  std::uint32_t high_;
  std::uint32_t next_;
};

/// A request that simulated, kept for the after-run check against
/// Experiment::run.
struct Miss {
  engine::Experiment grid;
  std::string name;
  std::uint64_t rows_hash = 0;
};

struct Completion {
  double ms = 0.0;    // send-to-result latency
  bool hit = false;   // answered wholly from cache
  double points = 0.0;
  double cycles = 0.0;  // simulated by this request
};

/// One connection's state across batches and what it recorded.
struct ConnectionLog {
  ConnectionLog(std::uint32_t run_seed, unsigned connection)
      : seeds(run_seed, connection), id((static_cast<std::uint64_t>(connection) + 1) << 40) {}

  FreshSeeds seeds;
  std::uint64_t id;        // last request id sent
  std::size_t single = 0;  // next entry of kSingles
  std::vector<double> elapsed_ms, overhead_ms, health_ms;
  std::vector<Completion> batch;  // completions of the current batch
  std::vector<Miss> misses;
  std::uint64_t attempted = 0, completed = 0;
  std::vector<std::pair<std::string, std::string>> failures;  // op, why
};

void check_grids_valid(const engine::Experiment& e) {
  const auto& grid = e.grid();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto p = grid.point(i);
    p.workload->validate(p.variant, p.config);
  }
}

}  // namespace

ServeLayers serve_probe(const std::vector<engine::Experiment>& grids) {
  ServeLayers out;
  std::vector<double> elapsed, overhead, health;
  try {
    serve::ServerConfig cfg;
    cfg.engine_threads = 1;
    serve::Server server(cfg);
    server.start();
    Client client(server.port());
    std::uint64_t health_id = 1000000;
    for (std::size_t i = 0; i < grids.size(); ++i) {
      const std::uint64_t id = i + 1;
      const std::string line = serve_line(grids[i].grid(), id);
      {
        Span span("serve.parse_request", id);
        (void)serve::parse_request(line, kMaxPoints);
      }
      for (int repeat = 0; repeat < 2; ++repeat) {
        const auto t0 = Clock::now();
        std::string reply;
        {
          Span span("serve.roundtrip", id);
          reply = client.roundtrip(line, id);
        }
        const double ms = ms_since(t0);
        const Reply r = read_reply(reply);
        if (!r.ok) break;
        if (repeat == 0) elapsed.push_back(r.elapsed_ms);
        overhead.push_back(ms - r.elapsed_ms);
        ++health_id;
        const auto h0 = Clock::now();
        {
          Span span("serve.health", health_id);
          client.roundtrip("{\"id\":" + std::to_string(health_id) + ",\"type\":\"health\"}",
                           health_id);
        }
        health.push_back(ms_since(h0));
      }
    }
    const std::string stats = client.roundtrip("{\"id\":0,\"type\":\"stats\"}", 0);
    out.cache_hit_share = stats_field(stats, "cache", "hit_rate");
    out.points_simulated = stats_field(stats, nullptr, "points_simulated");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: serve probe failed: %s\n", e.what());
  }
  out.server_elapsed_ms_p50 = median(elapsed);
  out.health_rtt_ms_p50 = median(health);
  out.client_overhead_ms_p50 = median(overhead);
  return out;
}

Result run_serve_mixed(const Options& opt) {
  Result result;
  Samples samples;
  const std::uint32_t repeat_seed = derive_seed(opt.seed, 0) & 0x0FFFFFFFU;
  const engine::Experiment repeat = repeat_grid(repeat_seed);

  struct Setup {
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<Client>> clients;
    std::string repeat_rows;  // what every repeat must answer, byte for byte
  };
  CpuRotation cpus(kBusyThreads);
  auto setup = repeated_setup(samples, cpus, [&] {
    Setup s;
    serve::ServerConfig cfg;
    cfg.engine_threads = 1;
    s.server = std::make_unique<serve::Server>(cfg);
    s.server->start();
    engine::SimEngine pool(1);
    s.repeat_rows = serve::single_line(repeat.run(pool).json());
    for (unsigned c = 0; c < kConnections; ++c) {
      s.clients.push_back(std::make_unique<Client>(s.server->port()));
    }
    // Simulate the repeated sweep once, so every timed repeat is a hit.
    const std::string warm = s.clients[0]->roundtrip(serve_line(repeat.grid(), 1), 1);
    if (const Reply r = read_reply(warm); !r.ok || r.rows != s.repeat_rows) {
      throw Error("serve_mixed: warm-up answer is wrong: " + warm.substr(0, 200));
    }
    return s;
  });
  check_grids_valid(repeat);
  for (const auto& single : kSingles) check_grids_valid(single_grid(single, 1));
  check_grids_valid(sweep_grid(1, 3));

  const bool traced = opt.trace;
  std::vector<ConnectionLog> logs;
  for (unsigned c = 0; c < kConnections; ++c) logs.emplace_back(opt.seed, c);

  struct Request {
    Kind kind = Kind::kRepeat;
    engine::Experiment grid;
    std::string name;
    std::uint64_t id = 0;
    std::string line;
  };
  const auto next_request = [&](ConnectionLog& log, Kind kind) {
    Request req{kind, repeat, "repeat sweep", ++log.id, {}};
    ++log.attempted;
    if (kind == Kind::kSingle) {
      const auto& p = kSingles[log.single++ % std::size(kSingles)];
      req.grid = single_grid(p, log.seeds.next());
      req.name = std::string("single ") + p.workload + "/" + workload::variant_name(p.variant);
    } else if (kind == Kind::kSweep) {
      const std::uint32_t a = log.seeds.next();
      req.grid = sweep_grid(a, log.seeds.next());
      req.name = "16-point sweep";
    }
    req.line = serve_line(req.grid.grid(), req.id);
    if (traced) {
      Span span("serve.parse_request", req.id);
      (void)serve::parse_request(req.line, kMaxPoints);
    }
    return req;
  };
  // Check a reply and record it in the connection's batch.
  const auto record = [&](ConnectionLog& log, Request& req, const std::string& reply,
                          double ms) {
    const Reply r = read_reply(reply);
    const std::uint64_t points = req.grid.grid().size();
    std::string why;
    if (!r.ok) {
      why = "no result event: " + reply.substr(0, 200);
    } else if (r.hits + r.coalesced + r.simulated != points || r.row_count != points) {
      why = "cache counts or rows do not add up to " + std::to_string(points) + " points";
    } else if (req.kind == Kind::kRepeat && (r.hits != points || r.rows != setup.repeat_rows)) {
      why = "repeat was not answered wholly from cache with the expected rows";
    } else if (req.kind != Kind::kRepeat && r.simulated != points) {
      why = "fresh points were not all simulated";
    }
    if (!why.empty()) {
      log.failures.emplace_back(req.name, why);
      return;
    }
    const bool hit = req.kind == Kind::kRepeat;
    if (!hit) {
      log.elapsed_ms.push_back(r.elapsed_ms);
      log.misses.push_back(Miss{std::move(req.grid), std::move(req.name), fnv1a(r.rows)});
    }
    log.overhead_ms.push_back(ms - r.elapsed_ms);
    log.batch.push_back(
        Completion{ms, hit, static_cast<double>(points), hit ? 0.0 : r.cycles});
  };
  // One round: the sweep, then the mixed connection's requests. False when
  // a connection is lost; the run then reports what it has.
  const auto run_round = [&]() -> bool {
    ConnectionLog& mixed = logs[kMixed];
    ConnectionLog& sweeps = logs[kSweeper];
    Client& mixed_client = *setup.clients[kMixed];
    Client& sweep_client = *setup.clients[kSweeper];
    Request sweep = next_request(sweeps, Kind::kSweep);
    const auto t_sweep = Clock::now();
    try {
      sweep_client.send(sweep.line);
    } catch (const std::exception& e) {
      sweeps.failures.emplace_back(sweep.name, e.what());
      return false;
    }
    std::string sweep_reply, sweep_lost;
    double sweep_ms = 0.0;
    std::thread waiter([&] {
      try {
        Span span("serve.roundtrip", sweep.id);
        sweep_reply = sweep_client.await(sweep.id);
        sweep_ms = ms_since(t_sweep);
      } catch (const std::exception& e) {
        sweep_lost = e.what();
      }
    });
    bool ok = true;
    for (const Kind kind : kMixedRound) {
      Request req = next_request(mixed, kind);
      const auto t0 = Clock::now();
      std::string reply;
      try {
        Span span("serve.roundtrip", req.id);
        reply = mixed_client.roundtrip(req.line, req.id);
      } catch (const std::exception& e) {
        mixed.failures.emplace_back(req.name, e.what());
        ok = false;
        break;
      }
      record(mixed, req, reply, ms_since(t0));
    }
    waiter.join();
    if (!sweep_lost.empty()) {
      sweeps.failures.emplace_back(sweep.name, sweep_lost);
      return false;
    }
    record(sweeps, sweep, sweep_reply, sweep_ms);
    if (ok && traced) {
      const std::uint64_t id = ++mixed.id;
      const auto h0 = Clock::now();
      try {
        Span span("serve.health", id);
        mixed_client.roundtrip("{\"id\":" + std::to_string(id) + ",\"type\":\"health\"}", id);
        mixed.health_ms.push_back(ms_since(h0));
      } catch (const std::exception&) {
      }
    }
    return ok;
  };

  // One window per batch. Before each batch, with the server idle, the
  // process moves to the next processors and the calibration loop
  // (calib.hpp) runs there: a loop run alongside the load would slow with
  // the server's own CPU use and hide part of a serve regression.
  bool lost = false;
  const auto t_start = Clock::now();
  do {
    cpus.next();
    Window w;
    w.calibration = calibration_rate();
    const auto batch_start = Clock::now();
    for (unsigned round = 0; round < kRoundsPerBatch && !lost; ++round) lost = !run_round();
    w.seconds = seconds_since(batch_start);
    for (auto& log : logs) {
      log.completed += log.batch.size();
      for (const Completion& done : log.batch) {
        w.requests += 1.0;
        w.points += done.points;
        w.cycles += done.cycles;
        (done.hit ? w.hit_ms : w.miss_ms).push_back(done.ms);
      }
      log.batch.clear();
    }
    samples.windows.push_back(std::move(w));
  } while (!lost && seconds_since(t_start) < opt.seconds);
  cpus.restore();

  ServeLayers serve_layers;
  try {
    const std::string stats = setup.clients[0]->roundtrip("{\"id\":2,\"type\":\"stats\"}", 2);
    serve_layers.cache_hit_share = stats_field(stats, "cache", "hit_rate");
    serve_layers.points_simulated = stats_field(stats, nullptr, "points_simulated");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: serve stats failed: %s\n", e.what());
  }
  setup.clients.clear();
  setup.server->request_shutdown();
  setup.server->wait();

  // Merge the connections' logs.
  std::uint64_t completed = 0;
  std::vector<const Miss*> misses;
  std::vector<double> elapsed, overhead, health;
  for (const auto& log : logs) {
    result.attempted += log.attempted;
    for (const auto& [op, why] : log.failures) result.fail(op, why);
    completed += log.completed;
    elapsed.insert(elapsed.end(), log.elapsed_ms.begin(), log.elapsed_ms.end());
    overhead.insert(overhead.end(), log.overhead_ms.begin(), log.overhead_ms.end());
    health.insert(health.end(), log.health_ms.begin(), log.health_ms.end());
    for (const auto& m : log.misses) misses.push_back(&m);
  }

  // Every simulated answer must be byte-identical to Experiment::run over
  // the same grid; checked after the timed loop so it costs the run nothing.
  ModelTally tally;
  engine::SimEngine verify_pool(std::max(1U, std::thread::hardware_concurrency()));
  std::mutex mutex;
  {
    engine::SimEngine inline_pool(1);
    const auto table = repeat.run(inline_pool);
    for (const auto& row : table.rows()) tally.add(row);
  }
  verify_pool.parallel_for(misses.size(), [&](std::size_t i) {
    const Miss& miss = *misses[i];
    std::string why;
    std::vector<engine::ResultRow> rows;
    try {
      engine::SimEngine inline_pool(1);
      const auto table = miss.grid.run(inline_pool);
      if (fnv1a(serve::single_line(table.json())) != miss.rows_hash) {
        why = "rows differ from Experiment::run over the same grid";
      }
      for (const auto& row : table.rows()) {
        if (auto bad = check_run(row.run); !bad.empty() && why.empty()) why = bad;
      }
      rows = table.rows();
    } catch (const std::exception& e) {
      why = e.what();
    }
    std::lock_guard lock(mutex);
    if (!why.empty()) {
      result.fail(miss.name, why);
      return;
    }
    for (const auto& row : rows) tally.add(row);
  });
  std::fprintf(stderr, "perfbench: serve_mixed: %llu requests, %zu simulated answers checked\n",
               static_cast<unsigned long long>(completed), misses.size());

  HostLayers layers;
  if (traced) {
    // The points behind the first simulated answers, one layer call at a
    // time, and one round's grids through the engine.
    std::vector<engine::Experiment> round;
    std::size_t sampled = 0;
    for (const Miss* miss : misses) {
      if (sampled >= 40) break;
      const auto& grid = miss->grid.grid();
      for (std::size_t i = 0; i < grid.size(); ++i, ++sampled) {
        const auto p = grid.point(i);
        try {
          (void)trace_run(prepare(p, sampled), p.params, sampled);
        } catch (const std::exception&) {
        }
      }
      if (round.size() < std::size(kMixedRound) + 1) round.push_back(miss->grid);
    }
    layers.engine = measure_engine(round);
    serve_layers.server_elapsed_ms_p50 = median(elapsed);
    serve_layers.health_rtt_ms_p50 = median(health);
    serve_layers.client_overhead_ms_p50 = median(overhead);
    layers.serve = serve_layers;
  }
  finish(result, opt, samples, tally, layers);
  return result;
}

}  // namespace perfbench
