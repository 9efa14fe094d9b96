// replan_sweep: surfosd's own dynamic world, driven in process — the
// few-large-plans workload that re-plans everything every epoch.
//
// A Daemon with its ticker off serves requests through handle_request and
// runs epochs back to back through run_epoch. Every site holds a resident
// app set of all four service classes, so each carries a full-aperture
// (121-bin) sensing task; the simulated clock advances far enough per
// epoch that the walker's motion rebuilds every site's environment. In each
// epoch two apps arrive on new endpoints at every site and the apps that
// arrived kHoldEpochs earlier stop, so delta precompute and endpoint GC
// run too. Requests are open-loop in epoch time: a request due inside an
// epoch is served at the next boundary, and its round trip is timed from
// its due time.
#include <algorithm>
#include <deque>
#include <memory>

#include "daemon/daemon.hpp"
#include "daemon/tags.hpp"
#include "proto/wire.hpp"
#include "proto/serialize.hpp"
#include "sim/precompute_store.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace surfos;

namespace {

namespace tag = surfos::daemon::tag;

std::vector<std::uint8_t> submit_payload(const std::string& site,
                                         const std::string& app,
                                         const broker::AppDemand& d) {
  std::vector<std::uint8_t> payload;
  proto::TlvWriter w(payload);
  w.put_string(tag::kAppId, app);
  w.put_string(tag::kSiteId, site);
  w.put_bytes(tag::kDemand, proto::to_wire(d));
  return payload;
}

std::vector<std::uint8_t> app_payload(const std::string& site,
                                      const std::string& app) {
  std::vector<std::uint8_t> payload;
  proto::TlvWriter w(payload);
  w.put_string(tag::kAppId, app);
  w.put_string(tag::kSiteId, site);
  return payload;
}

/// Status of one app in a kStatusReply.
struct AppState {
  bool found = false;
  bool running = false;
};

AppState parse_app_state(const proto::WireFrame& reply,
                         const std::string& app) {
  AppState state;
  if (reply.type != proto::MsgType::kStatusReply) return state;
  proto::TlvReader r(reply.payload);
  while (const auto tlv = r.next()) {
    if (tlv->tag != tag::kSession) continue;
    proto::TlvReader n(tlv->value);
    std::string id;
    bool running = false;
    while (const auto f = n.next()) {
      if (f->tag == tag::kSessionApp) id = proto::tlv_string(*f);
      if (f->tag == tag::kSessionRunning) {
        running = proto::tlv_u8(*f).value_or(0) != 0;
      }
    }
    if (id == app) {
      state.found = true;
      state.running = running;
    }
  }
  return state;
}

constexpr std::size_t kSites = 3;
constexpr std::uint64_t kEpochSimMs = 100;  // walker moves 8 cm per epoch
constexpr std::size_t kHoldEpochs = 4;      // an arrival stops this much later
constexpr std::size_t kArrivalsPerEpoch = 2;  // per site
constexpr std::size_t kReadsPerEpoch = 16;  // alternating status / metrics
constexpr std::size_t kWarmEpochs = 3;
constexpr std::size_t kSetups = 10;
constexpr std::size_t kTailEpochs = 3;  // epochs with reads but no arrivals
/// Epochs per wall second the workload was sized with; --seconds sets the
/// epoch count, so a run's work is a function of its arguments only. On a
/// 4-vCPU host with two pool threads, 30 s of epochs ran in 30-51 s.
constexpr double kEpochsPerSecond = 13.5;

constexpr broker::AppClass kResident[] = {
    broker::AppClass::kVideoStreaming, broker::AppClass::kWirelessCharging,
    broker::AppClass::kSensitiveData, broker::AppClass::kSmartHome};

std::string site_id(std::size_t s) { return "site" + std::to_string(s); }
std::string arrival_app(std::size_t s, std::size_t n) {
  return "arr-" + std::to_string(s) + "-" + std::to_string(n);
}

/// Every arrival gets a new endpoint name; the daemon places an endpoint at
/// a position hashed from its name, so the seed moves where they land.
std::string endpoint_name(std::uint64_t seed, std::size_t site, std::size_t n) {
  return "ep-" + std::to_string(seed) + "-" + std::to_string(site) + "-" +
         std::to_string(n);
}

struct Op {
  enum Kind { kSubmit, kStop, kRead } kind = kRead;
  double t = 0.0;  ///< Epoch time due.
  std::size_t site = 0;
  std::size_t n = 0;  ///< Arrival number (submit/stop) or read number.
};

struct Pending {
  std::size_t site = 0, n = 0, boundary = 0;
  double due_us = 0.0;
};

std::unique_ptr<daemon::Daemon> make_daemon(std::uint64_t& trace_seq) {
  daemon::DaemonOptions o;
  o.sites = kSites;
  o.ticker = false;
  o.epoch_ms = kEpochSimMs;
  auto d = std::make_unique<daemon::Daemon>(o);
  for (std::size_t s = 0; s < kSites; ++s) {
    for (const broker::AppClass c : kResident) {
      const std::string app = std::string("res-") + broker::to_string(c);
      proto::WireFrame req;
      req.type = proto::MsgType::kSubmitDemand;
      req.trace_id = ++trace_seq;
      req.payload = submit_payload(
          site_id(s), app,
          broker::demand_profile(c, "res-" + std::to_string(s) + "-" + app,
                                 "room"));
      if (d->handle_request(req).type != proto::MsgType::kOk) {
        throw BenchError("resident app refused: " + app);
      }
    }
  }
  for (std::size_t i = 0; i < kWarmEpochs; ++i) d->run_epoch();
  return d;
}

}  // namespace

RunResult run_replan_sweep(const Options& opt, SpanRecorder& spans) {
  RunResult out;
  std::uint64_t trace_seq = opt.seed << 32;  // client-minted request ids

  // --- Setup -----------------------------------------------------------------
  // setup_s is the median of kSetups cold set-ups, the first timed from
  // process start: half before the timed phase (the last of them builds the
  // daemon that is measured) and half after it.
  std::vector<double> setup_s;
  std::unique_ptr<daemon::Daemon> d;
  const auto set_up = [&] {
    const double t0 = setup_s.empty() ? 0.0 : now_us();
    d.reset();
    sim::PrecomputeStore::instance().clear();
    d = make_daemon(trace_seq);
    setup_s.push_back((now_us() - t0) / 1e6);
  };
  while (setup_s.size() < kSetups / 2) set_up();
  auto& metrics = telemetry::MetricsRegistry::instance();
  metrics.reset();
  const auto pre_base = sim::PrecomputeStore::instance().stats();
  const daemon::DaemonStats stats_base = d->stats();
  const std::size_t threads = util::global_pool().thread_count();

  // --- Inputs ------------------------------------------------------------------
  const auto epochs = static_cast<std::size_t>(
      std::max(2.0 * kHoldEpochs, opt.seconds * kEpochsPerSecond));
  util::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 0x5EE9);
  std::vector<Op> ops;
  for (std::size_t e = 0; e + 1 < epochs; ++e) {
    if (e + 1 + kTailEpochs < epochs) {
      for (std::size_t s = 0; s < kSites; ++s) {
        for (std::size_t a = 0; a < kArrivalsPerEpoch; ++a) {
          const std::size_t n = e * kArrivalsPerEpoch + a;
          ops.push_back({Op::kSubmit, double(e) + rng.uniform(), s, n});
          if (e >= kHoldEpochs) {
            ops.push_back({Op::kStop, double(e) + rng.uniform(), s,
                           n - kHoldEpochs * kArrivalsPerEpoch});
          }
        }
      }
    }
    for (std::size_t k = 0; k < kReadsPerEpoch; ++k) {
      ops.push_back({Op::kRead, double(e) + rng.uniform(), 0,
                     e * kReadsPerEpoch + k});
    }
  }
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.t < b.t; });

  // --- Timed phase -------------------------------------------------------------
  Samples admit_ms, epoch_ms, read_us, write_us, lag_ms,
      submit_us, daemon_epoch_ms, encode_us, decode_us, report_bytes;
  ReportTotals totals;
  std::vector<double> epoch_start, epoch_end;
  std::deque<Pending> pending;  // submitted, not yet seen running
  std::size_t queue_max = 0, echo_failures = 0,
              decode_failures = 0, next_op = 0;
  std::uint64_t hash = kFnvBasis;
  double epoch_wall_us = 0.0;

  const auto call = [&](proto::MsgType type, std::vector<std::uint8_t> payload,
                        const char* span_name) {
    proto::WireFrame req;
    req.type = type;
    req.trace_id = ++trace_seq;
    req.payload = std::move(payload);
    const Scoped s(spans, span_name, req.trace_id);
    proto::WireFrame reply = d->handle_request(req);
    ++out.attempted;
    if (reply.trace_id != req.trace_id) ++echo_failures;
    return reply;
  };

  for (std::size_t e = 0; e < epochs; ++e) {
    const double start = now_us();
    epoch_start.push_back(start);
    const Scoped epoch_span(spans, "epoch", e);

    // 1. Serve what fell due during the last epoch, in due order.
    for (; next_op < ops.size() && ops[next_op].t < double(e); ++next_op) {
      const Op& op = ops[next_op];
      const auto k = static_cast<std::size_t>(op.t);
      const double due =
          epoch_start[k] + (op.t - double(k)) * (start - epoch_start[k]);
      lag_ms.add((now_us() - due) / 1000.0);
      if (op.kind == Op::kSubmit) {
        const double t0 = now_us();
        const proto::WireFrame reply = call(
            proto::MsgType::kSubmitDemand,
            submit_payload(site_id(op.site), arrival_app(op.site, op.n),
                           broker::demand_profile(
                               broker::AppClass::kVideoStreaming,
                               endpoint_name(opt.seed, op.site, op.n))),
            "daemon.submit");
        const double t1 = now_us();
        if (reply.type == proto::MsgType::kOk) {
          submit_us.add(t1 - t0);
          write_us.add(t1 - due);
          pending.push_back({op.site, op.n, e, due});
          proto::TlvReader r(reply.payload);
          while (const auto tlv = r.next()) {
            if (tlv->tag == tag::kQueueDepth) {
              queue_max = std::max<std::size_t>(
                  queue_max, proto::tlv_u64(*tlv).value_or(0));
            }
          }
        } else {
          ++out.failed;
        }
      } else if (op.kind == Op::kStop) {
        const proto::WireFrame reply =
            call(proto::MsgType::kStopApp,
                 app_payload(site_id(op.site), arrival_app(op.site, op.n)),
                 "daemon.stop");
        if (reply.type == proto::MsgType::kOk) {
          write_us.add(now_us() - due);
        } else {
          ++out.failed;
        }
      } else if (op.n % 2 == 0) {
        // Status read: the oldest arrival admitted in an earlier epoch, or a
        // resident app when none is waiting.
        const auto it = std::find_if(
            pending.begin(), pending.end(),
            [&](const Pending& p) { return p.boundary < e; });
        const bool probe = it != pending.end();
        const std::size_t site = probe ? it->site : op.n / 2 % kSites;
        const std::string app =
            probe ? arrival_app(it->site, it->n) : "res-video-streaming";
        const proto::WireFrame reply =
            call(proto::MsgType::kGetStatus, app_payload(site_id(site), app),
                 "daemon.status");
        const double t1 = now_us();
        const AppState state = parse_app_state(reply, app);
        // An error reply, or a resident app missing from the status, fails;
        // an arrival not yet admitted is a valid answer.
        if (reply.type != proto::MsgType::kStatusReply ||
            (!state.found && !probe)) {
          ++out.failed;
        } else {
          read_us.add(t1 - due);
        }
        if (probe && state.running) {
          // Seen running at this boundary: run_epoch admits and applies in
          // one call, so the epoch that just ended applied its configs.
          admit_ms.add((epoch_end[e - 1] - it->due_us) / 1000.0);
          pending.erase(it);
        }
      } else {
        const proto::WireFrame reply =
            call(proto::MsgType::kGetMetrics, {}, "daemon.metrics");
        if (reply.type == proto::MsgType::kMetricsReply) {
          read_us.add(now_us() - due);
        } else {
          ++out.failed;
        }
      }
    }

    // 2. One control epoch (world advance, admission, step_all, GC).
    {
      const Scoped sp(spans, "daemon.run_epoch");
      const double t0 = now_us();
      d->run_epoch();
      const double t1 = now_us();
      epoch_ms.add((t1 - t0) / 1000.0);
      const std::vector<std::uint8_t> bytes = d->last_report_wire();
      report_bytes.add(double(bytes.size()));
      FleetReport report;
      {
        const Scoped dp(spans, "proto.decode");
        const double d0 = now_us();
        if (!proto::from_wire(bytes, report).ok()) ++decode_failures;
        decode_us.add(now_us() - d0);
      }
      {
        const Scoped ep(spans, "proto.encode");
        const double e0 = now_us();
        const auto again = proto::to_wire(report);
        encode_us.add(now_us() - e0);
        if (again != bytes) ++decode_failures;
      }
      attach_stages(spans, sp.id(), t0, stage_wall(report, threads));
      {
        const Scoped hp(spans, "harness.hash");
        hash = hash_report(hash, report);
      }
      totals.add(report, threads);
      daemon_epoch_ms.add(d->stats().last_epoch_ms);
    }
    epoch_end.push_back(now_us());
    epoch_wall_us += epoch_end.back() - start;
  }
  const daemon::DaemonStats stats = d->stats();

  out.report_hash = hash;
  out.hashed_epochs = totals.epochs;
  out.check("every reply echoes its trace id", echo_failures == 0,
            std::to_string(echo_failures) + " replies with a foreign trace id");
  out.check("daemon.malformed == 0", stats.malformed == 0,
            std::to_string(stats.malformed) + " malformed frames");
  out.check("every submit applied or counted failed", pending.empty(),
            std::to_string(pending.size()) + " submits never seen running");
  out.check("reports decode and re-encode byte-identically",
            decode_failures == 0,
            std::to_string(decode_failures) + " reports failed");

  // --- End-to-end --------------------------------------------------------------
  out.e2e_pcts("admit_to_applied_ms", admit_ms, "ms", 90);
  out.e2e_pcts("epoch_ms", epoch_ms, "ms", 90);
  out.e2e("goal_met_ratio",
          totals.tasks_measured ? double(totals.tasks_met) /
                                      double(totals.tasks_measured)
                                : 0.0,
          "ratio", totals.tasks_measured);

  // --- Per layer ---------------------------------------------------------------
  out.layer_pcts("broker.submit_us", submit_us, "us", 99);
  out.layer_pcts("broker.pump_us", Samples(), "us", 99);  // inside run_epoch
  out.layer("broker.queue_depth.max", double(queue_max), "count",
            submit_us.size());
  const auto count = [&](const char* c) {
    return double(metrics.counter(c).value());
  };
  out.layer("broker.admitted", count("broker.admission.admitted"), "count",
            epochs);
  out.layer("broker.shed", count("broker.admission.shed"), "count", epochs);
  out.layer("broker.deferred", count("broker.admission.deferred"), "count",
            epochs);
  out.layer_pcts("fleet.step_all_ms", Samples(), "ms", 90);  // inside run_epoch
  layer_report_totals(out, totals, epoch_wall_us);
  layer_precompute(out, pre_base);
  out.layer("proto.report_bytes", report_bytes.mean(), "bytes",
            report_bytes.size());
  out.layer("proto.report_encode_us", encode_us.percentile(50, "encode"),
            "us", encode_us.size());
  out.layer("proto.report_decode_us", decode_us.percentile(50, "decode"),
            "us", decode_us.size());
  out.layer("daemon.env_rebuilds",
            double(stats.env_rebuilds - stats_base.env_rebuilds), "count",
            epochs);
  out.layer_pcts("daemon.epoch_ms", daemon_epoch_ms, "ms", 90);
  out.layer("daemon.requests", double(stats.requests - stats_base.requests),
            "count", epochs);
  out.layer("daemon.malformed", double(stats.malformed), "count", epochs);
  out.layer_pcts("rtt.read_us", read_us, "us", 99);
  out.layer_pcts("rtt.write_us", write_us, "us", 99);
  out.layer("generator.lag_ms.p99", lag_ms.percentile(99, "generator lag"),
            "ms", lag_ms.size());
  out.layer("unattributed_share", spans.uncovered_share("epoch"), "ratio",
            epochs);

  // --- Closing set-ups (the measured daemon is no longer needed) -------------
  while (setup_s.size() < kSetups) set_up();
  out.e2e("setup_s", median(setup_s), "s", setup_s.size());
  return out;
}

}  // namespace perfbench
