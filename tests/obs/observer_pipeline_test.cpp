// Integration: run the simulator + full pipeline under a
// MetricsPipelineObserver and check that (a) the reported funnel counters
// are internally consistent and agree with the returned results, (b) an
// unobserved run produces byte-identical detections, and (c) the whole
// registry serializes to both exposition formats.
#include <gtest/gtest.h>

#include <map>

#include "stalecert/core/pipeline.hpp"
#include "stalecert/obs/exposition.hpp"
#include "stalecert/obs/observer.hpp"
#include "stalecert/sim/world.hpp"
#include "stalecert/store/archive.hpp"
#include "support/temp_path.hpp"

namespace stalecert {
namespace {

std::map<std::string, std::uint64_t> counters_by_name(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& counter : snapshot.counters) out[counter.name] = counter.value;
  return out;
}

struct SurveyRun {
  sim::WorldConfig config;
  core::PipelineResult result;
};

core::PipelineResult run_survey(const sim::WorldConfig& config,
                                obs::PipelineObserver* observer) {
  sim::World world(config);
  world.set_observer(observer);
  world.run();
  core::PipelineConfig pipeline_config;
  pipeline_config.revocation_cutoff = config.revocation_cutoff;
  pipeline_config.delegation_patterns = world.cloudflare_delegation_patterns();
  pipeline_config.managed_san_pattern = world.cloudflare_san_pattern();
  pipeline_config.observer = observer;
  return core::run_pipeline(world.ct_logs(), world.crl_collection().store(),
                            world.whois().re_registrations(), world.adns(),
                            pipeline_config);
}

TEST(ObserverPipelineTest, FunnelCountersAreInternallyConsistent) {
  obs::MetricsPipelineObserver telemetry;
  const sim::WorldConfig config = sim::small_test_config();
  const auto result = run_survey(config, &telemetry);

  const auto counters = counters_by_name(telemetry.registry().snapshot());
  auto at = [&](const std::string& name) {
    const auto it = counters.find(name);
    EXPECT_NE(it, counters.end()) << "missing counter " << name;
    return it == counters.end() ? 0 : it->second;
  };

  // CT collection funnel: every raw entry is accounted for.
  EXPECT_EQ(at("stalecert_ct_collect_entries_raw_total"),
            at("stalecert_ct_collect_corpus_total") +
                at("stalecert_ct_collect_dropped_duplicates_total") +
                at("stalecert_ct_collect_dropped_anomalous_total"));
  EXPECT_EQ(at("stalecert_ct_collect_corpus_total"), result.corpus.size());
  EXPECT_EQ(at("stalecert_ct_collect_entries_raw_total"),
            result.collect_stats.raw_entries);

  // Revocation join funnel matches JoinStats exactly.
  const auto& join = result.revocations.join_stats;
  EXPECT_EQ(at("stalecert_revocation_join_matched_total"),
            at("stalecert_revocation_join_kept_total") +
                at("stalecert_revocation_join_dropped_before_valid_total") +
                at("stalecert_revocation_join_dropped_after_expiry_total") +
                at("stalecert_revocation_join_dropped_before_cutoff_total"));
  EXPECT_EQ(at("stalecert_revocation_join_matched_total"), join.matched);
  EXPECT_EQ(at("stalecert_revocation_join_kept_total"), join.kept);
  EXPECT_EQ(at("stalecert_revocation_join_stale_key_compromise_total"),
            result.revocations.key_compromise.size());

  // WHOIS candidate funnel.
  EXPECT_EQ(at("stalecert_registrant_change_candidate_certs_total"),
            at("stalecert_registrant_change_stale_found_total") +
                at("stalecert_registrant_change_rejected_outside_validity_total"));
  EXPECT_EQ(at("stalecert_registrant_change_stale_found_total"),
            result.registrant_change.size());

  // aDNS departure funnel.
  EXPECT_EQ(at("stalecert_managed_departure_candidate_certs_total"),
            at("stalecert_managed_departure_stale_found_total") +
                at("stalecert_managed_departure_rejected_expired_total") +
                at("stalecert_managed_departure_rejected_name_mismatch_total") +
                at("stalecert_managed_departure_rejected_unmanaged_total") +
                at("stalecert_managed_departure_rejected_duplicate_total"));
  EXPECT_EQ(at("stalecert_managed_departure_stale_found_total"),
            result.managed_departure.size());

  // Pipeline roll-up covers all three detector classes.
  EXPECT_EQ(at("stalecert_pipeline_stale_key_compromise_total"),
            result.revocations.key_compromise.size());
  EXPECT_EQ(at("stalecert_pipeline_stale_registrant_change_total"),
            result.registrant_change.size());
  EXPECT_EQ(at("stalecert_pipeline_stale_managed_departure_total"),
            result.managed_departure.size());
  EXPECT_EQ(at("stalecert_pipeline_stale_total"),
            result.all_third_party().size());

  // Simulator ground truth flows through the observer too.
  EXPECT_GT(at("stalecert_sim_run_days_simulated_total"), 0u);
  EXPECT_EQ(at("stalecert_sim_run_days_simulated_total"),
            static_cast<std::uint64_t>(config.end - config.start) + 1);
  EXPECT_GT(at("stalecert_sim_run_certificates_issued_total"), 0u);
}

TEST(ObserverPipelineTest, TraceNestsStagesUnderPipeline) {
  obs::MetricsPipelineObserver telemetry;
  run_survey(sim::small_test_config(), &telemetry);

  const auto& spans = telemetry.trace().spans();
  ASSERT_GE(spans.size(), 5u);
  std::size_t pipeline_index = obs::Trace::npos;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "pipeline") pipeline_index = i;
  }
  ASSERT_NE(pipeline_index, obs::Trace::npos);
  // All four stage spans hang off the pipeline span.
  for (const char* stage : {"ct_collect", "revocation_join", "registrant_change",
                            "managed_departure"}) {
    bool found = false;
    for (const auto& span : spans) {
      if (span.name == stage && span.parent == pipeline_index) found = true;
    }
    EXPECT_TRUE(found) << "missing child span " << stage;
  }
  // sim_run is a root span (not inside the pipeline).
  bool sim_found = false;
  for (const auto& span : spans) {
    if (span.name == "sim_run") {
      sim_found = true;
      EXPECT_EQ(span.parent, obs::Trace::npos);
    }
    EXPECT_TRUE(span.closed);
  }
  EXPECT_TRUE(sim_found);
}

TEST(ObserverPipelineTest, NullObserverProducesIdenticalResults) {
  const sim::WorldConfig config = sim::small_test_config();
  obs::MetricsPipelineObserver telemetry;
  const auto observed = run_survey(config, &telemetry);
  const auto unobserved = run_survey(config, nullptr);

  ASSERT_EQ(observed.corpus.size(), unobserved.corpus.size());
  ASSERT_EQ(observed.revocations.key_compromise.size(),
            unobserved.revocations.key_compromise.size());
  ASSERT_EQ(observed.registrant_change.size(), unobserved.registrant_change.size());
  ASSERT_EQ(observed.managed_departure.size(), unobserved.managed_departure.size());
  for (const auto cls : core::kAllStaleClasses) {
    const auto& a = observed.of(cls);
    const auto& b = unobserved.of(cls);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].corpus_index, b[i].corpus_index);
      EXPECT_EQ(a[i].event_date, b[i].event_date);
      EXPECT_EQ(a[i].trigger_domain, b[i].trigger_domain);
      EXPECT_EQ(a[i].staleness_days(), b[i].staleness_days());
    }
  }
}

TEST(ObserverPipelineTest, ArchiveRoundTripPreservesStaleSetsAndFunnels) {
  // Generate-once / analyze-many must be invisible to the measurement: the
  // pipeline over a reloaded .scw archive produces the same stale sets and
  // reports the same funnel counters as the pipeline over the live world.
  const sim::WorldConfig config = sim::small_test_config();
  const std::string path = testutil::unique_temp_path("observer_roundtrip.scw");

  obs::MetricsPipelineObserver live_telemetry;
  sim::World world(config);
  world.run();
  store::save_world(world, path, nullptr, "small");

  core::PipelineConfig pipeline_config;
  pipeline_config.revocation_cutoff = config.revocation_cutoff;
  pipeline_config.delegation_patterns = world.cloudflare_delegation_patterns();
  pipeline_config.managed_san_pattern = world.cloudflare_san_pattern();
  pipeline_config.observer = &live_telemetry;
  const auto live = core::run_pipeline(
      world.ct_logs(), world.crl_collection().store(),
      world.whois().re_registrations(), world.adns(), pipeline_config);

  obs::MetricsPipelineObserver loaded_telemetry;
  const store::LoadedWorld loaded = store::load_world(path);
  pipeline_config.observer = &loaded_telemetry;
  const auto replayed = core::run_pipeline(loaded.ct_logs, loaded.revocations,
                                           loaded.re_registrations(),
                                           loaded.adns, pipeline_config);

  // Identical stale sets, member by member.
  for (const auto cls : core::kAllStaleClasses) {
    const auto& a = live.of(cls);
    const auto& b = replayed.of(cls);
    ASSERT_EQ(b.size(), a.size()) << to_string(cls);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i].corpus_index, a[i].corpus_index);
      EXPECT_EQ(b[i].event_date, a[i].event_date);
      EXPECT_EQ(b[i].trigger_domain, a[i].trigger_domain);
    }
  }

  // Identical pipeline funnel counters. Both registries hold only pipeline
  // stages here (sim_run was unobserved, store_load reported elsewhere), so
  // the counter maps must match exactly.
  const auto live_counters = counters_by_name(live_telemetry.registry().snapshot());
  const auto loaded_counters =
      counters_by_name(loaded_telemetry.registry().snapshot());
  EXPECT_EQ(live_counters, loaded_counters);
}

TEST(ObserverPipelineTest, RegistrySerializesToBothFormats) {
  obs::MetricsPipelineObserver telemetry;
  run_survey(sim::small_test_config(), &telemetry);

  const auto snapshot = telemetry.registry().snapshot();
  const std::string prom = obs::to_prometheus(snapshot);
  EXPECT_NE(prom.find("# TYPE stalecert_stage_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("stalecert_ct_collect_entries_raw_total "), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  const std::string json = telemetry.report_json();
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_NE(json.find("duration_seconds"), std::string::npos);
}

}  // namespace
}  // namespace stalecert
