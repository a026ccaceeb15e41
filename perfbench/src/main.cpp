/// \file main.cpp
/// The perfbench binary: builds one workload's inputs, measures it for a fixed
/// time, verifies its outputs, and prints a report whose last line is one
/// JSON object {"correct", "attempted", "failed", "metrics"}.
///
///   perfbench --workload table1 --seed 7 --seconds 15 --trace 0
///             [--size full|tiny] [--work-dir DIR]
///             [--reference FILE] [--reference-out FILE]
///
/// Each workload holds a pool of input units derived from the seed.  After
/// one untimed warm-up pass, the timed loop runs every unit at least once
/// and keeps cycling through the pool while another pass still fits in
/// --seconds (--seconds 0: each unit once).
/// --trace 0 prints the end-to-end metrics; --trace 1 measures the untraced
/// rate the same way, then re-runs the workload's traced units through the
/// probes and prints the per-layer split.  A stored reference (workload, size, seed -> digest and
/// exact work counters) turns any drift into a "behaviour changed" failure.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace pb = perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    pb::Size size = pb::Size::Full;
    std::string work_dir = ".bench_build/work";
    std::string reference;
    std::string reference_out;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] [--work-dir DIR] "
                 "[--reference FILE] [--reference-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string val = argv[++i];
        try {
            if (key == "--workload") a.workload = val;
            else if (key == "--seed") a.seed = std::stoull(val);
            else if (key == "--seconds") a.seconds = std::stod(val);
            else if (key == "--trace") a.trace = std::stoi(val) != 0;
            else if (key == "--size") {
                if (val != "full" && val != "tiny") usage("bad --size " + val);
                a.size = val == "full" ? pb::Size::Full : pb::Size::Tiny;
            } else if (key == "--work-dir") a.work_dir = val;
            else if (key == "--reference") a.reference = val;
            else if (key == "--reference-out") a.reference_out = val;
            else usage("unknown option " + key);
        } catch (const std::logic_error&) {
            usage("bad value for " + key + ": " + val);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    return a;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

std::string key_of(const Args& a) {
    return a.workload + " " + (a.size == pb::Size::Full ? "full" : "tiny") +
           " " + std::to_string(a.seed);
}

struct Reference {
    bool found = false;
    std::string digest;
    pb::Counters counters;
};

/// Reference lines: "<workload> <size> <seed> digest=<hex> name=value ...".
Reference load_reference(const std::string& path, const std::string& key) {
    Reference ref;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key + " ", 0) != 0) continue;
        std::istringstream fields(line.substr(key.size() + 1));
        std::string kv;
        while (fields >> kv) {
            const auto eq = kv.find('=');
            if (eq == std::string::npos) continue;
            const std::string k = kv.substr(0, eq);
            if (k == "digest") ref.digest = kv.substr(eq + 1);
            else ref.counters[k] = std::stoll(kv.substr(eq + 1));
        }
        ref.found = true;
    }
    return ref;
}

void print_json(bool correct, long long attempted, long long failed,
                const std::vector<pb::Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    try {
        auto wl = pb::make_workload(args.workload, args.seed, args.size,
                                    args.work_dir);
        std::printf("workload %s, seed %llu, %s size\n", args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    args.size == pb::Size::Full ? "full" : "tiny");

        // Set-up runs several times; its median is setup_s.  Five runs come
        // first, then one more after each timed pass (up to 200 in all), so
        // the median spans the whole run rather than one moment of the
        // host's load.  Set-up is repeatable: it rebuilds the same inputs.
        std::vector<double> setups;
        const auto set_up = [&] {
            const std::int64_t t0 = pb::now_ns();
            wl->setup();
            setups.push_back(pb::seconds_since(t0));
        };
        while (setups.size() < 5) set_up();

        // Closed loop over the input pool: pass k runs unit k mod K, until
        // every unit ran and another pass would overrun --seconds.  A unit's
        // time is the sum, over its parts, of each part's fastest repeat; a
        // rate is the pool's work over the sum of those times.  The host's
        // noise only ever slows a part down, so the fastest repeat of a
        // short part is the steadiest estimate of its cost.
        const int units = wl->units();
        struct Unit {
            std::vector<double> seconds, readback_s;
            std::vector<double> fastest; ///< per part, over repeats
            pb::PassResult first;
        };
        std::vector<Unit> pool(static_cast<std::size_t>(units));
        long long attempted = 0, failed = 0;
        // An untimed warm-up pass of unit 0 first, where the workload asks
        // for one: allocator arenas, lazily grown buffers and first-touch
        // code paths reach their steady state before anything is timed.
        // Its outputs are verified like any other pass.
        pb::PassResult warm;
        if (wl->warm_up()) {
            warm = wl->pass(0);
            std::printf("warm-up (unit 0): %lld instances in %.4f s, digest "
                        "%s\n",
                        warm.instances, warm.seconds,
                        pb::hex(warm.digest).c_str());
            attempted += warm.attempted;
            failed += warm.failed;
        }
        const std::int64_t start = pb::now_ns();
        double last = 0;
        for (int k = 0;
             k < units || pb::seconds_since(start) + last <= args.seconds;
             ++k) {
            Unit& u = pool[static_cast<std::size_t>(k % units)];
            pb::PassResult p = wl->pass(k % units);
            last = p.seconds;
            if (k == 0 && wl->warm_up() && p.digest != warm.digest) {
                std::printf("verify: unit 0 digest changed after warm-up\n");
                ++failed;
            }
            std::printf("pass %d (unit %d): %lld instances, %lld slots in "
                        "%.4f s, digest %s\n",
                        k, k % units, p.instances, p.counters.at("sim.slots"),
                        p.seconds, pb::hex(p.digest).c_str());
            attempted += p.attempted;
            failed += p.failed;
            u.seconds.push_back(p.seconds);
            u.readback_s.push_back(p.readback_s);
            if (p.parts.empty()) p.parts = {p.seconds};
            if (u.fastest.empty()) {
                u.fastest = p.parts;
            } else if (p.parts.size() != u.fastest.size()) {
                std::printf("verify: unit %d split into %zu parts, then %zu\n",
                            k % units, u.fastest.size(), p.parts.size());
                ++failed;
            } else {
                for (std::size_t i = 0; i < p.parts.size(); ++i)
                    u.fastest[i] = std::min(u.fastest[i], p.parts[i]);
            }
            if (u.seconds.size() == 1) {
                u.first = std::move(p);
            } else if (p.digest != u.first.digest) {
                std::printf("verify: unit %d digest changed between passes\n",
                            k % units);
                ++failed;
            }
            if (setups.size() < 200) set_up();
        }
        // `typical`: a unit's time is the median of its whole passes instead,
        // comparable with the single traced pass.
        const auto rate_over = [&](const std::vector<int>& which,
                                   bool typical) {
            double instances = 0, slots = 0, secs = 0, records = 0, rb = 0;
            for (const int i : which) {
                const Unit& u = pool[static_cast<std::size_t>(i)];
                instances += static_cast<double>(u.first.instances);
                slots += static_cast<double>(u.first.counters.at("sim.slots"));
                secs += typical ? median(u.seconds)
                                : std::accumulate(u.fastest.begin(),
                                                  u.fastest.end(), 0.0);
                records += static_cast<double>(u.first.readback_records);
                rb += median(u.readback_s);
            }
            return std::array<double, 3>{instances / secs, slots / secs,
                                         rb > 0 ? records / rb : 0.0};
        };
        const auto digest_over = [&](const std::vector<int>& which) {
            std::vector<std::uint64_t> d;
            for (const int i : which)
                d.push_back(pool[static_cast<std::size_t>(i)].first.digest);
            return pb::combine(d);
        };
        std::vector<int> all_units(static_cast<std::size_t>(units));
        std::iota(all_units.begin(), all_units.end(), 0);
        const std::uint64_t digest = digest_over(all_units);
        const std::vector<int> traced_units = wl->traced_units();
        pb::Counters counters;
        for (const int i : traced_units)
            for (const auto& [k, v] : pool[static_cast<std::size_t>(i)].first.counters)
                counters[k] += v;

        std::vector<pb::Metric> metrics;
        if (!args.trace) {
            const auto all = rate_over(all_units, false);
            metrics.push_back({"setup_s", median(setups), "s"});
            metrics.push_back({"instances_per_s", all[0], "1/s"});
            metrics.push_back({"slots_per_s", all[1], "1/s"});
            if (all[2] > 0)
                metrics.push_back({"readback_records_per_s", all[2], "1/s"});
        } else {
            const std::uint64_t expect = digest_over(traced_units);
            pb::LayerReport lr = wl->traced(rate_over(traced_units, true)[0]);
            attempted += lr.attempted;
            failed += lr.failed;
            if (lr.traced_digest != expect) {
                std::printf("verify: traced digest %s != untraced %s\n",
                            pb::hex(lr.traced_digest).c_str(),
                            pb::hex(expect).c_str());
                ++failed;
            }
            if (lr.replay_digest != 0 && lr.replay_digest != expect) {
                std::printf("verify: replay digest %s != campaign %s\n",
                            pb::hex(lr.replay_digest).c_str(),
                            pb::hex(expect).c_str());
                ++failed;
            }
            std::printf("untraced digest %s (units traced: %zu of %d)\n",
                        pb::hex(expect).c_str(), traced_units.size(), units);
            std::printf("traced digest %s\n", pb::hex(lr.traced_digest).c_str());
            std::printf("%-18s %12s %12s %12s\n", "layer", "span_ms",
                        "child_ms", "self_ms");
            for (const auto& line : lr.table) std::printf("%s\n", line.c_str());
            for (const auto& line : lr.notes) std::printf("%s\n", line.c_str());
            for (const auto& [k, v] : lr.counters) counters[k] = v;
            metrics = std::move(lr.metrics);
        }

        bool correct = failed == 0;
        std::printf("digest %s\n", pb::hex(digest).c_str());
        for (const auto& [k, v] : counters)
            std::printf("counter %s %lld\n", k.c_str(), v);
        const Reference ref = args.reference.empty()
                                  ? Reference{}
                                  : load_reference(args.reference, key_of(args));
        if (!ref.found) {
            std::printf("reference: none stored for %s; verified by internal "
                        "cross-checks only\n",
                        key_of(args).c_str());
        } else {
            if (ref.digest != pb::hex(digest)) {
                std::printf("behaviour changed: digest %s, reference %s\n",
                            pb::hex(digest).c_str(), ref.digest.c_str());
                correct = false;
            }
            for (const auto& [k, v] : ref.counters) {
                const auto it = counters.find(k);
                if (it != counters.end() && it->second != v) {
                    std::printf("behaviour changed: %s = %lld, reference "
                                "%lld\n",
                                k.c_str(), it->second, v);
                    correct = false;
                }
            }
            if (correct) std::printf("reference: digest and counters match\n");
        }
        if (!args.reference_out.empty()) {
            std::ofstream out(args.reference_out, std::ios::app);
            out << key_of(args) << " digest=" << pb::hex(digest);
            for (const auto& [k, v] : counters) out << ' ' << k << '=' << v;
            out << '\n';
        }

        if (!args.trace) {
            metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
            metrics.push_back(
                {"failed_frac",
                 attempted > 0 ? static_cast<double>(failed) / attempted : 0,
                 "ratio"});
        }
        for (const auto& m : metrics)
            std::printf("metric %-28s %18.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        if (attempted < 1) attempted = 1;
        print_json(correct, attempted, failed, metrics);
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
