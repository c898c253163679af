#include "harness/chaos.h"

#include <algorithm>
#include <numeric>

#include "harness/checkpoint.h"  // double_to_hex: byte-exact drop-prob text
#include "sim/delivery.h"        // delivery_kind_name
#include "support/sha256.h"

namespace ssbft {

namespace {

// The envelope every sampled plan stays inside; every bound is inclusive.
// Faults are scheduled (and heal) by half the unit's beat budget, leaving
// the other half for re-convergence.
constexpr std::uint32_t kMaxCorruptionBeats = 3;
constexpr std::uint32_t kMaxCorruptionNodes = 2;  // per corruption beat
constexpr std::uint32_t kMaxPhantomsPerBeat = 6;
constexpr std::uint32_t kMaxPhantomLen = 256;
constexpr double kMaxDropProb = 0.8;
constexpr std::uint32_t kMaxDelayBeats = 6;  // targeted-delay hold
static_assert(kMaxPhantomLen <= FaultPlan::kMaxPhantomLen);
static_assert(kMaxDelayBeats <= DeliverySpec::kMaxDelayBeats);

// `count` distinct ids from [0, n), sorted — a partial Fisher-Yates, so
// the draw sequence is a fixed function of the rng stream.
std::vector<NodeId> sample_distinct(Rng& r, std::uint32_t n,
                                    std::uint32_t count) {
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t j = i + r.next_below(n - i);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(count);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void append_ids(std::string& out, const std::vector<NodeId>& ids) {
  out.push_back('[');
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += std::to_string(ids[i]);
  }
  out.push_back(']');
}

}  // namespace

ChaosUnit FaultPlanGenerator::make_unit(std::uint64_t index,
                                        const std::string& scenario,
                                        std::uint32_t n, std::uint32_t actual,
                                        std::uint64_t max_beats) const {
  SSBFT_REQUIRE_MSG(n >= 2, "chaos campaigns need a world of n >= 2 nodes");
  SSBFT_REQUIRE_MSG(actual <= n,
                    "faulty count " << actual << " exceeds n = " << n);
  const std::uint64_t horizon =
      std::max<std::uint64_t>(std::uint64_t{1}, max_beats / 2);

  // Every axis draws from its own named split of the unit stream, so
  // adding an axis later never perturbs the existing ones.
  const Rng unit_rng = Rng(campaign_seed_).split("chaos-unit", index);

  ChaosUnit u;
  u.campaign_seed = campaign_seed_;
  u.index = index;
  u.scenario = scenario;
  u.engine_seed = unit_rng.split("engine-seed").next_u64();

  {
    Rng fr = unit_rng.split("faulty");
    u.faulty = sample_distinct(fr, n, actual);
  }

  FaultPlan& p = u.plan;
  p.randomize_genesis = true;

  {
    Rng nr = unit_rng.split("network");
    if (nr.next_bool()) {
      p.network_faulty_until = nr.next_in(1, horizon);
      p.phantoms_per_beat = static_cast<std::uint32_t>(
          nr.next_below(std::uint64_t{kMaxPhantomsPerBeat} + 1));
      p.phantom_max_len = static_cast<std::uint32_t>(
          nr.next_in(1, kMaxPhantomLen));
      p.faulty_drop_prob = nr.next_double() * kMaxDropProb;
    }
  }

  {
    Rng cr = unit_rng.split("corruptions");
    const auto beats = static_cast<std::uint32_t>(
        cr.next_below(std::uint64_t{kMaxCorruptionBeats} + 1));
    const std::uint32_t node_cap = std::min(kMaxCorruptionNodes, n);
    for (std::uint32_t i = 0; i < beats; ++i) {
      const Beat beat = cr.next_in(1, horizon);
      const auto count =
          static_cast<std::uint32_t>(cr.next_in(1, node_cap));
      p.corruptions[beat] = sample_distinct(cr, n, count);
    }
  }

  {
    Rng dr = unit_rng.split("delivery");
    DeliverySpec& d = p.delivery;
    // Eclipse / partition / delay adversaries always heal inside the
    // horizon so the plan is eventually quiescent; reorder delivers
    // everything within its beat, so it may legally run forever.
    switch (dr.next_below(5)) {
      case 0:
        d.kind = DeliveryKind::kSynchronous;
        break;
      case 1: {
        d.kind = DeliveryKind::kEclipse;
        const auto vmax = std::max<std::uint32_t>(1, n / 2);
        d.victims = sample_distinct(
            dr, n, static_cast<std::uint32_t>(dr.next_in(1, vmax)));
        const auto smax = static_cast<std::uint32_t>(dr.next_below(n + 1));
        d.allowed_senders = sample_distinct(dr, n, smax);
        d.heal_at = dr.next_in(1, horizon);
        break;
      }
      case 2:
        d.kind = DeliveryKind::kPartition;
        d.partition_split = static_cast<std::uint32_t>(dr.next_in(1, n - 1));
        d.heal_at = dr.next_in(1, horizon);
        break;
      case 3: {
        d.kind = DeliveryKind::kTargetedDelay;
        const auto vmax = std::max<std::uint32_t>(1, n / 2);
        d.victims = sample_distinct(
            dr, n, static_cast<std::uint32_t>(dr.next_in(1, vmax)));
        d.delay_beats =
            static_cast<std::uint32_t>(dr.next_in(1, kMaxDelayBeats));
        d.heal_at = dr.next_in(1, horizon);
        break;
      }
      case 4:
        d.kind = DeliveryKind::kReorder;
        if (dr.next_bool()) d.heal_at = dr.next_in(1, horizon);
        break;
    }
  }

  p.validate(n);
  return u;
}

std::string encode_chaos_unit(const ChaosUnit& unit) {
  std::string out = "ssbft-chaos-v1\n";
  out += "campaign=" + std::to_string(unit.campaign_seed) +
         " unit=" + std::to_string(unit.index) + "\n";
  out += "scenario=" + unit.scenario + "\n";
  out += "engine_seed=" + std::to_string(unit.engine_seed) + "\n";
  out += "faulty=";
  append_ids(out, unit.faulty);
  out.push_back('\n');

  const FaultPlan& p = unit.plan;
  out += "genesis=" + std::string(p.randomize_genesis ? "1" : "0") + "\n";
  out += "net until=" + std::to_string(p.network_faulty_until) +
         " phantoms=" + std::to_string(p.phantoms_per_beat) +
         " plen=" + std::to_string(p.phantom_max_len) +
         " drop=" + double_to_hex(p.faulty_drop_prob) + "\n";
  for (const auto& [beat, ids] : p.corruptions) {
    out += "corrupt b" + std::to_string(beat) + "=";
    append_ids(out, ids);
    out.push_back('\n');
  }
  const DeliverySpec& d = p.delivery;
  out += "delivery kind=" + std::string(delivery_kind_name(d.kind)) +
         " victims=";
  append_ids(out, d.victims);
  out += " allowed=";
  append_ids(out, d.allowed_senders);
  out += " split=" + std::to_string(d.partition_split) + " heal=" +
         (d.heal_at == DeliverySpec::kNever ? std::string("never")
                                            : std::to_string(d.heal_at)) +
         " delay=" + std::to_string(d.delay_beats) + "\n";
  return out;
}

std::string chaos_unit_digest(const ChaosUnit& unit) {
  return Sha256::hash_hex(encode_chaos_unit(unit));
}

std::vector<FaultPlan> chaos_reductions(const FaultPlan& plan) {
  std::vector<FaultPlan> out;
  const auto push = [&out](FaultPlan q) { out.push_back(std::move(q)); };
  const auto first_half = [](const std::vector<NodeId>& ids) {
    return std::vector<NodeId>(ids.begin(), ids.begin() + ids.size() / 2);
  };
  const auto second_half = [](const std::vector<NodeId>& ids) {
    return std::vector<NodeId>(ids.begin() + ids.size() / 2, ids.end());
  };

  // Boldest cuts first: a whole axis gone is the biggest simplification,
  // so the greedy loop converges in few re-runs when an axis is inert.
  if (plan.delivery.kind != DeliveryKind::kSynchronous) {
    FaultPlan q = plan;
    q.delivery = DeliverySpec{};
    push(std::move(q));
  }
  if (plan.network_faulty_until != 0) {
    FaultPlan q = plan;
    q.network_faulty_until = 0;
    q.phantoms_per_beat = 0;
    q.faulty_drop_prob = 0.0;
    push(std::move(q));
  }
  if (plan.corruptions.size() > 1) {
    FaultPlan q = plan;
    q.corruptions.clear();
    push(std::move(q));
  }
  for (const auto& [beat, ids] : plan.corruptions) {
    FaultPlan q = plan;
    q.corruptions.erase(beat);
    push(std::move(q));
    if (ids.size() > 1) {
      q = plan;
      q.corruptions[beat] = first_half(ids);
      push(std::move(q));
      q = plan;
      q.corruptions[beat] = second_half(ids);
      push(std::move(q));
    }
  }
  if (plan.network_faulty_until != 0) {
    if (plan.phantoms_per_beat > 0) {
      FaultPlan q = plan;
      q.phantoms_per_beat = 0;
      push(std::move(q));
    }
    if (plan.faulty_drop_prob > 0.0) {
      FaultPlan q = plan;
      q.faulty_drop_prob = 0.0;
      push(std::move(q));
    }
    if (plan.network_faulty_until > 1) {
      FaultPlan q = plan;
      q.network_faulty_until = plan.network_faulty_until / 2;
      push(std::move(q));
    }
  }
  if (plan.delivery.victims.size() > 1) {
    FaultPlan q = plan;
    q.delivery.victims = first_half(plan.delivery.victims);
    push(std::move(q));
    q = plan;
    q.delivery.victims = second_half(plan.delivery.victims);
    push(std::move(q));
  }
  if (plan.delivery.kind == DeliveryKind::kTargetedDelay &&
      plan.delivery.delay_beats > 1) {
    FaultPlan q = plan;
    q.delivery.delay_beats = 1;
    push(std::move(q));
  }
  if (plan.delivery.kind != DeliveryKind::kSynchronous &&
      plan.delivery.heal_at != DeliverySpec::kNever &&
      plan.delivery.heal_at > 1) {
    FaultPlan q = plan;
    q.delivery.heal_at = plan.delivery.heal_at / 2;
    push(std::move(q));
  }
  return out;
}

}  // namespace ssbft
