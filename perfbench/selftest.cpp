// Self-tests of the benchmark's own machinery: every output check must
// reject a perturbed input, the printer must emit every metric with its
// unit, the open-loop generator must report its lag, and span self time must
// exclude child spans. Runs every expectation; exits non-zero if any failed.
//
//   perfbench_selftest            (run by selftest.py after the build)
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << '\n';
  if (!ok) ++g_failures;
}

mdl::serve::InferenceResult result_like(const mdl::Tensor& reference) {
  mdl::serve::InferenceResult r;
  r.status = mdl::serve::RequestStatus::kOk;
  r.logits = reference;
  r.argmax = reference.argmax_rows().front();
  return r;
}

void flip_low_bit(mdl::Tensor& t) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, t.data(), sizeof bits);
  bits ^= 1U;
  std::memcpy(t.data(), &bits, sizeof bits);
}

void test_serve_checks() {
  std::cout << "serve result check\n";
  for (const char* workload : {"keystroke_serve", "split_serve"}) {
    const auto fx = make_serve_fixture(workload, 7, 8);
    for (std::size_t i = 0; i < fx->pool.size(); ++i) {
      const mdl::Tensor again = fx->server->score(fx->pool[i]);
      if (!bit_identical(again, fx->reference[i])) {
        expect(false, "score() is repeatable");
        return;
      }
    }
    auto served = fx->server->submit(fx->pool[3]).get();
    expect(serve_result_ok(served, fx->reference[3]),
           "a served result matches its reference");
    expect(!serve_result_ok(served, fx->reference[4]) ||
               bit_identical(fx->reference[3], fx->reference[4]),
           "a served result does not match another request's reference");
    mdl::serve::InferenceResult r = result_like(fx->reference[0]);
    expect(serve_result_ok(r, fx->reference[0]), "identical logits pass");
    flip_low_bit(r.logits);
    expect(!serve_result_ok(r, fx->reference[0]), "one flipped logit bit fails");
    r = result_like(fx->reference[0]);
    r.status = mdl::serve::RequestStatus::kError;
    expect(!serve_result_ok(r, fx->reference[0]), "a non-kOk status fails");
    r = result_like(fx->reference[0]);
    r.argmax = 1 - r.argmax;
    expect(!serve_result_ok(r, fx->reference[0]), "a wrong argmax fails");
  }
}

void test_scalar_checks() {
  std::cout << "accounting, ledger, loss and accuracy checks\n";
  expect(accounting_ok(10, 9, 1), "sent == ok + failed passes");
  expect(!accounting_ok(10, 9, 0), "a request with no terminal state fails");
  expect(!accounting_ok(10, 10, 1), "a request counted twice fails");
  expect(ledger_matches(1000, 600, 400), "ledger == counter deltas passes");
  expect(!ledger_matches(1001, 600, 400), "ledger off by one byte fails");
  expect(!ledger_matches(1000, 600, 401), "counters off by one byte fail");
  expect(loss_ok(0.7), "a finite loss passes");
  expect(!loss_ok(std::numeric_limits<double>::quiet_NaN()), "a NaN loss fails");
  expect(!loss_ok(std::numeric_limits<double>::infinity()), "an inf loss fails");
  expect(accuracy_ok(0.8, 0.5), "accuracy above the floor passes");
  expect(!accuracy_ok(0.49, 0.5), "accuracy below the floor fails");
  expect(!accuracy_ok(std::nan(""), 0.5), "a NaN accuracy fails");

  Result r;
  r.check(true, "fine");
  expect(r.correct() && r.attempted == 1 && r.failed == 0,
         "a passing check counts as attempted only");
  r.check(false, "broken");
  expect(!r.correct() && r.attempted == 2 && r.failed == 1,
         "a failing check counts as attempted and failed");
}

void test_printer() {
  std::cout << "result printer\n";
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    Result r;
    for (const MetricSpec& s : *specs) r.set(s.name, 1.25);
    std::ostringstream os;
    print_result_json(os, r, *specs);
    const std::string line = os.str();
    bool all = r.correct();
    for (const MetricSpec& s : *specs) {
      const std::string want = std::string("\"") + s.name +
                               "\": {\"value\": 1.25, \"unit\": \"" + s.unit +
                               "\"}";
      all = all && line.find(want) != std::string::npos;
    }
    expect(all, "every metric is printed with its value and unit");
    expect(line.rfind("{\"correct\": true, \"attempted\": ", 0) == 0,
           "the line starts with the correct/attempted keys");
  }
  Result missing;
  std::ostringstream os;
  print_result_json(os, missing, end_to_end_metrics());
  expect(!missing.correct() && os.str().find("\"correct\": false") == 1,
         "a missing metric makes the result incorrect");
}

void test_open_loop_lag() {
  std::cout << "open-loop generator\n";
  const auto fx = make_serve_fixture("split_serve", 11, 16);
  const OpenLoopStats s = run_open_loop(*fx, 500.0, 0.2, 11);
  expect(s.sent > 0 && s.failed == 0 && s.ok == s.sent,
         "every open-loop request is served and checked");
  expect(s.lag_us.size() == static_cast<std::size_t>(s.ok),
         "the generator records its lag for every request");
  Result r;
  set_open_loop_metrics(s, r);
  const auto lag = r.values.find("loadgen.lag_p99_us");
  expect(lag != r.values.end() && std::isfinite(lag->second) &&
             lag->second >= 0.0,
         "loadgen.lag_p99_us is reported");
  bool later = true;
  for (std::size_t i = 0; i < s.latency_us.size(); ++i)
    later = later && s.latency_us[i] >= s.lag_us[i];
  expect(later, "latency is timed from the due time, lag included");
}

void test_spans() {
  std::cout << "spans\n";
  set_tracing(true);
  {
    Span outer("selftest.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      Span inner("selftest.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  set_tracing(false);
  { Span ignored("selftest.untraced"); }
  auto totals = layer_totals();
  const LayerTotals& outer = totals["selftest.outer"];
  const LayerTotals& inner = totals["selftest.inner"];
  expect(outer.calls == 1 && inner.calls == 1, "each span is counted once");
  expect(outer.self_us < outer.total_us - 4000.0,
         "self time excludes the child span");
  expect(inner.self_us == inner.total_us, "a leaf's self time is its total");
  expect(totals.find("selftest.untraced") == totals.end() ||
             totals["selftest.untraced"].calls == 0,
         "spans are not recorded while tracing is off");
}

}  // namespace

int main() {
  test_scalar_checks();
  test_printer();
  test_spans();
  test_serve_checks();
  test_open_loop_lag();
  std::cout << (g_failures == 0 ? "selftest: all passed\n"
                                : "selftest: FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
