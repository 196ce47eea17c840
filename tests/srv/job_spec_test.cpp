// JobSpec: the server's job vocabulary. Validation rejects everything the
// executor could choke on, encode/decode round-trips every field, and
// expand() produces the exact engine jobs a sweep needs.
#include "srv/job_spec.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/flat_json.hpp"

namespace lpm::srv {
namespace {

JobSpec valid_spec() {
  JobSpec spec;
  spec.kind = "simulate";
  spec.workload = "403.gcc";
  spec.length = 5'000;
  return spec;
}

TEST(JobSpec, DefaultsValidate) { EXPECT_NO_THROW(valid_spec().validate()); }

TEST(JobSpec, RejectsUnknownKind) {
  auto spec = valid_spec();
  spec.kind = "explode";
  EXPECT_THROW(spec.validate(), util::ConfigError);
}

TEST(JobSpec, RejectsUnknownMachine) {
  auto spec = valid_spec();
  spec.machine = "pdp11";
  EXPECT_THROW(spec.validate(), util::ConfigError);
}

TEST(JobSpec, BackendVocabularyIsStatic) {
  // Clients validate without an engine in the process, so the backend
  // check must not depend on process-local executor registration.
  for (const char* name : {"cycle", "rdh", "fa"}) {
    auto spec = valid_spec();
    spec.backend = name;
    EXPECT_NO_THROW(spec.validate()) << name;
  }
  auto spec = valid_spec();
  spec.backend = "quantum";
  EXPECT_THROW(spec.validate(), util::ConfigError);
}

TEST(JobSpec, RejectsOversizedLength) {
  auto spec = valid_spec();
  spec.length = 10'000'001;
  EXPECT_THROW(spec.validate(), util::ConfigError);
}

TEST(JobSpec, SweepNeedsKnobAndValues) {
  auto spec = valid_spec();
  spec.kind = "sweep";
  EXPECT_THROW(spec.validate(), util::ConfigError);
  spec.sweep_knob = "l1_kb";
  spec.sweep_values = "16,32,64";
  EXPECT_NO_THROW(spec.validate());
  spec.sweep_values = "16,,64";
  EXPECT_THROW(spec.validate(), util::ConfigError);
  spec.sweep_values = "16,zero";
  EXPECT_THROW(spec.validate(), util::ConfigError);
}

TEST(JobSpec, SweepKeysAreSweepOnly) {
  auto spec = valid_spec();
  spec.sweep_knob = "l1_kb";
  EXPECT_THROW(spec.validate(), util::ConfigError);
}

TEST(JobSpec, SweepPointCapEnforced) {
  auto spec = valid_spec();
  spec.kind = "sweep";
  spec.sweep_knob = "mshr";
  std::string values;
  for (std::size_t i = 0; i <= kMaxSweepPoints; ++i) {
    if (!values.empty()) values += ',';
    values += std::to_string(i + 1);
  }
  spec.sweep_values = values;
  EXPECT_THROW(spec.validate(), util::ConfigError);
}

TEST(JobSpec, WalkIsCycleOnly) {
  auto spec = valid_spec();
  spec.kind = "walk";
  spec.backend = "rdh";
  EXPECT_THROW(spec.validate(), util::ConfigError);
}

TEST(JobSpec, DegradeEligibility) {
  auto spec = valid_spec();
  EXPECT_TRUE(spec.degrade_eligible());
  spec.degrade_ok = false;
  EXPECT_FALSE(spec.degrade_eligible());
  spec.degrade_ok = true;
  spec.backend = "rdh";  // already analytic: nothing to degrade to
  EXPECT_FALSE(spec.degrade_eligible());
  spec.backend = "cycle";
  spec.kind = "walk";  // walks verify at cycle fidelity by contract
  EXPECT_FALSE(spec.degrade_eligible());
}

TEST(JobSpec, EncodeDecodeRoundTrip) {
  JobSpec spec;
  spec.kind = "sweep";
  spec.workload = "429.mcf";
  spec.length = 42'000;
  spec.seed = 7;
  spec.machine = "three_level";
  spec.l1_kb = 16;
  spec.l1_assoc = 4;
  spec.l2_kb = 512;
  spec.mshr = 8;
  spec.cores = 2;
  spec.backend = "rdh";
  spec.calibrate = false;
  spec.degrade_ok = false;
  spec.deadline_ms = 1'500;
  spec.sweep_knob = "l2_kb";
  spec.sweep_values = "256,512";

  JsonWriter out;
  spec.encode(out);
  const JobSpec back = JobSpec::decode(util::FlatJson::parse(out.finish()));
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.workload, spec.workload);
  EXPECT_EQ(back.length, spec.length);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.machine, spec.machine);
  EXPECT_EQ(back.l1_kb, spec.l1_kb);
  EXPECT_EQ(back.l1_assoc, spec.l1_assoc);
  EXPECT_EQ(back.l2_kb, spec.l2_kb);
  EXPECT_EQ(back.mshr, spec.mshr);
  EXPECT_EQ(back.cores, spec.cores);
  EXPECT_EQ(back.backend, spec.backend);
  EXPECT_EQ(back.calibrate, spec.calibrate);
  EXPECT_EQ(back.degrade_ok, spec.degrade_ok);
  EXPECT_EQ(back.deadline_ms, spec.deadline_ms);
  EXPECT_EQ(back.sweep_knob, spec.sweep_knob);
  EXPECT_EQ(back.sweep_values, spec.sweep_values);
}

TEST(JobSpec, DecodeRejectsNegativeNumbers) {
  EXPECT_THROW(JobSpec::decode(util::FlatJson::parse(R"({"job_length":-5})")),
               util::ConfigError);
  EXPECT_THROW(JobSpec::decode(util::FlatJson::parse(R"({"job_seed":1.5})")),
               util::ConfigError);
}

TEST(JobSpec, MachineOverridesApply) {
  auto spec = valid_spec();
  spec.l1_kb = 16;
  spec.l1_assoc = 2;
  spec.mshr = 4;
  spec.l2_kb = 128;
  const auto cfg = spec.machine_config();
  EXPECT_EQ(cfg.l1.size_bytes, 16u * 1024);
  EXPECT_EQ(cfg.l1.associativity, 2u);
  EXPECT_EQ(cfg.l1.mshr_entries, 4u);
  EXPECT_EQ(cfg.l2.size_bytes, 128u * 1024);

  // An inconsistent machine fails here, before any job is built from it:
  // nuca16 sizes sixteen private L1s.
  spec.machine = "nuca16";
  spec.cores = 4;
  EXPECT_THROW((void)spec.machine_config(), util::ConfigError);
}

TEST(JobSpec, ExpandSimulateIsOneJob) {
  const auto jobs = valid_spec().expand("c1/j1");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].tag, "c1/j1");
  EXPECT_EQ(jobs[0].backend, "cycle");
}

TEST(JobSpec, ExpandSweepTagsEveryPoint) {
  auto spec = valid_spec();
  spec.kind = "sweep";
  spec.sweep_knob = "l1_kb";
  spec.sweep_values = "16,32,64";
  const auto jobs = spec.expand("c1/j2");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].tag, "c1/j2/l1_kb=16");
  EXPECT_EQ(jobs[2].tag, "c1/j2/l1_kb=64");
  EXPECT_EQ(jobs[0].machine.l1.size_bytes, 16u * 1024);
  EXPECT_EQ(jobs[2].machine.l1.size_bytes, 64u * 1024);
  // Fingerprints differ per point: the memo cache must not conflate them.
  EXPECT_NE(jobs[0].fingerprint(), jobs[1].fingerprint());
}

TEST(JobSpec, ExpandWalkThrows) {
  auto spec = valid_spec();
  spec.kind = "walk";
  EXPECT_THROW(spec.expand("c1/j3"), util::ConfigError);
}

}  // namespace
}  // namespace lpm::srv
