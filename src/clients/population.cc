#include "src/clients/population.h"

#include <algorithm>
#include <cmath>

namespace torclients {
namespace {

// Fixed model constants (EXPERIMENTS.md): the hourly directory period (the
// steady-state refetch cadence), a consensus valid for three periods
// (tordir/freshness.h), and the publish-to-mirror delay of the cache tier.
constexpr double kFetchPeriodSeconds = 3600.0;
constexpr double kValidityPeriods = 3.0;
constexpr double kCacheMirrorDelaySeconds = 10.0;

// A document as the cache tier serves it: availability (publish + mirror
// delay) plus the freshness window, all in virtual seconds.
struct ServedDoc {
  double available = 0.0;
  double fresh_until = 0.0;
  double valid_until = 0.0;
  double size_bytes = 0.0;
  double diff_size_bytes = 0.0;
};

torbase::TimePoint ToMicros(double seconds) {
  return static_cast<torbase::TimePoint>(std::llround(seconds * 1e6));
}

}  // namespace

PublishedDocument MapToTimeline(double round_start_seconds, double published_in_round_seconds,
                                uint64_t valid_after, uint64_t fresh_until, uint64_t valid_until,
                                double size_bytes, torbase::Duration vote_lead) {
  const double lead = torbase::ToSeconds(vote_lead);
  const double base = static_cast<double>(valid_after);
  PublishedDocument doc;
  doc.published_seconds = round_start_seconds + published_in_round_seconds;
  doc.fresh_until_seconds = round_start_seconds + static_cast<double>(fresh_until) - base + lead;
  doc.valid_until_seconds = round_start_seconds + static_cast<double>(valid_until) - base + lead;
  doc.size_bytes = size_bytes;
  return doc;
}

ClientAvailability SimulateClientLoad(const ClientLoadSpec& spec,
                                      std::vector<PublishedDocument> documents,
                                      double window_seconds) {
  ClientAvailability out;
  if (spec.client_count == 0 || window_seconds <= 0.0) {
    return out;
  }

  const double period = kFetchPeriodSeconds;
  const double lead = torbase::ToSeconds(spec.vote_lead);

  std::sort(documents.begin(), documents.end(),
            [](const PublishedDocument& a, const PublishedDocument& b) {
              return a.published_seconds < b.published_seconds;
            });

  double default_size = spec.consensus_size_hint_bytes;
  if (default_size <= 0.0) {
    default_size = documents.empty() ? 1e6 : documents.front().size_bytes;
  }
  if (default_size <= 0.0) {
    default_size = 1e6;
  }

  std::vector<ServedDoc> docs;
  docs.reserve(documents.size() + 1);
  // The previous period's document: already mirrored at t = 0, fresh until
  // this run's consensus was due (the vote_lead clock convention), valid for
  // the remaining kValidityPeriods - 1 periods.
  docs.push_back(ServedDoc{0.0, lead, lead + (kValidityPeriods - 1.0) * period, default_size,
                           /*diff_size_bytes=*/0.0});
  for (const PublishedDocument& doc : documents) {
    docs.push_back(ServedDoc{doc.published_seconds + kCacheMirrorDelaySeconds,
                             doc.fresh_until_seconds, doc.valid_until_seconds,
                             doc.size_bytes > 0.0 ? doc.size_bytes : default_size,
                             doc.diff_size_bytes});
  }
  std::sort(docs.begin(), docs.end(),
            [](const ServedDoc& a, const ServedDoc& b) { return a.available < b.available; });

  // Availability-state breakpoints: window edges and every instant a document
  // becomes available or crosses a freshness boundary. The cache tier's rate
  // is fixed, so between consecutive breakpoints the state and all rates are
  // constant, and each slice integrates in closed form.
  std::vector<double> cuts = {0.0, window_seconds};
  const auto add_cut = [&cuts, window_seconds](double t) {
    if (t > 0.0 && t < window_seconds) {
      cuts.push_back(t);
    }
  };
  for (const ServedDoc& doc : docs) {
    add_cut(doc.available);
    add_cut(doc.fresh_until);
    add_cut(doc.valid_until);
  }
  const torsim::BandwidthSchedule cache(kCacheBandwidthBps);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Cohort demand rates: the fluid limit of each cohort's Poisson fetch
  // arrivals (see the header comment).
  const double boot_rate =
      static_cast<double>(spec.client_count) * kBootstrapFraction / period;
  const double steady_rate =
      static_cast<double>(spec.client_count) * (1.0 - kBootstrapFraction) / period;

  double backlog = 0.0;
  out.timeline.reserve(cuts.size() - 1);
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double t0 = cuts[i];
    const double t1 = cuts[i + 1];
    const double length = t1 - t0;

    // The state over [t0, t1): boundaries are breakpoints, so evaluating the
    // window edges at t0 classifies the whole slice.
    double fresh_max = -1.0;
    double valid_max = -1.0;
    double fresh_size = 0.0;
    double valid_size = 0.0;
    double fresh_diff = 0.0;
    double valid_diff = 0.0;
    for (const ServedDoc& doc : docs) {
      if (doc.available > t0) {
        break;  // sorted by availability
      }
      if (doc.fresh_until > fresh_max) {
        fresh_max = doc.fresh_until;
        fresh_size = doc.size_bytes;
        fresh_diff = doc.diff_size_bytes;
      }
      if (doc.valid_until > valid_max) {
        valid_max = doc.valid_until;
        valid_size = doc.size_bytes;
        valid_diff = doc.diff_size_bytes;
      }
    }
    AvailabilitySlice::State state = AvailabilitySlice::State::kDown;
    double serve_size = 0.0;
    double serve_diff = 0.0;
    if (fresh_max > t0) {
      state = AvailabilitySlice::State::kFresh;
      serve_size = fresh_size;
      serve_diff = fresh_diff;
    } else if (valid_max > t0) {
      state = AvailabilitySlice::State::kStale;
      serve_size = valid_size;
      serve_diff = valid_diff;
    }

    const double steady = steady_rate * length;
    const double boot = boot_rate * length;

    AvailabilitySlice slice;
    slice.begin_seconds = t0;
    slice.end_seconds = t1;
    slice.state = state;

    if (state == AvailabilitySlice::State::kDown) {
      // No valid document: steady clients keep (and retry against) their
      // expired copy — client-visibly broken; bootstrapping clients cannot
      // join and queue up for retry.
      slice.unserved_fetches = steady;
      out.unserved_fetches += steady;
      backlog += boot;
      out.hard_down_seconds += length;
      if (std::isnan(out.hard_down_start_seconds)) {
        out.hard_down_start_seconds = t0;
      }
    } else {
      // A document exists. Steady refetchers are served first: their demand
      // is paced by the fetch period, and a refetch the caches cannot carry
      // is simply missed until the next period — unmet steady demand counts
      // unserved, exactly as in the down state. Bootstrapping arrivals and
      // the bootstrap retry backlog share the remaining capacity, so the
      // backlog tracks *blocked bootstraps* only. Capacity is the cache
      // tier's aggregate schedule over the slice.
      const double capacity_bits =
          static_cast<double>(kCacheCount) * cache.CapacityDuring(ToMicros(t0), ToMicros(t1));
      double steady_served;
      double boot_served;
      if (spec.diff_capable_fraction <= 0.0) {
        // The pre-diff arithmetic, bit for bit: with no diff cohort the
        // per-fetch size is uniform and capacity divides once.
        const double capacity_fetches = capacity_bits / (serve_size * 8.0);
        steady_served = std::min(steady, capacity_fetches);
        const double boot_offered = boot + backlog;
        boot_served = std::min(boot_offered, capacity_fetches - steady_served);
        backlog = boot_offered - boot_served;
        slice.served_bytes = (steady_served + boot_served) * serve_size;
      } else {
        // Diff-capable steady refetchers transfer the served document's diff
        // when it has one; everyone else — the rest of the steady cohort and
        // every bootstrap — transfers the full document. Capacity is spent in
        // bytes, steady demand first (same priority as above).
        const double diff_size = serve_diff > 0.0 ? serve_diff : serve_size;
        const double steady_avg = spec.diff_capable_fraction * diff_size +
                                  (1.0 - spec.diff_capable_fraction) * serve_size;
        const double capacity_bytes = capacity_bits / 8.0;
        steady_served = std::min(steady, capacity_bytes / steady_avg);
        const double boot_offered = boot + backlog;
        boot_served =
            std::min(boot_offered, (capacity_bytes - steady_served * steady_avg) / serve_size);
        backlog = boot_offered - boot_served;
        slice.served_bytes = steady_served * steady_avg + boot_served * serve_size;
      }
      out.served_bytes += slice.served_bytes;
      const double served = steady_served + boot_served;
      slice.unserved_fetches = steady - steady_served;
      out.unserved_fetches += steady - steady_served;
      if (state == AvailabilitySlice::State::kFresh) {
        slice.fresh_fetches = served;
        out.fresh_fetches += served;
      } else {
        slice.stale_fetches = served;
        out.stale_fetches += served;
      }
    }
    if (state != AvailabilitySlice::State::kFresh) {
      out.outage_seconds += length;
      if (std::isnan(out.outage_start_seconds)) {
        out.outage_start_seconds = t0;
        out.time_to_first_stale_seconds = t0;
      }
    }

    backlog = std::max(backlog, 0.0);
    out.peak_backlog_fetches = std::max(out.peak_backlog_fetches, backlog);
    slice.backlog_fetches = backlog;
    out.timeline.push_back(slice);
  }

  // Demand still queued at the window edge never got a document in time.
  out.unserved_fetches += backlog;
  out.total_fetches = (steady_rate + boot_rate) * window_seconds;
  if (out.total_fetches > 0.0) {
    out.fresh_fraction = out.fresh_fetches / out.total_fetches;
  }
  return out;
}

}  // namespace torclients
